//go:build !(linux || darwin)

package embed

// pinned makes no mapping where there are no anonymous mappings to move
// weights into: Pin keeps the heap model and LoadPinned loads one.
func pinned(Arch, func([]float32) error) (*Model, func(), error) { return nil, nil, nil }
