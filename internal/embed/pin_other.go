//go:build !(linux || darwin)

package embed

// Pin returns m and a no-op where there are no anonymous mappings to
// move its weights into: they stay on the Go heap.
func Pin(m *Model) (*Model, func()) { return m, func() {} }
