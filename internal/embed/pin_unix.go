//go:build linux || darwin

package embed

import (
	"fmt"
	"sync"
	"syscall"
	"unsafe"
)

// pinned maps room for arch's weights, has fill write them, seals the
// mapping read-only and returns the model that serves from it with the
// release Pin documents. It returns a nil model and no error when the
// mapping cannot be made, before fill runs, and fill's error (the
// mapping unmapped) when fill fails.
func pinned(arch Arch, fill func(w []float32) error) (*Model, func(), error) {
	n := arch.WeightCount()
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, nil
	}
	w := unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(mem))), n)
	if err := fill(w); err != nil {
		_ = syscall.Munmap(mem) // nothing references the weights yet
		return nil, nil, err
	}
	if err := syscall.Mprotect(mem, syscall.PROT_READ); err != nil {
		_ = syscall.Munmap(mem)
		return nil, nil, fmt.Errorf("embed: sealing pinned weights: %w", err)
	}
	p, err := FromWeights(arch, w)
	if err != nil {
		panic(err) // w has arch's own weight count
	}
	pinnedBytes.Add(int64(len(mem)))
	var once sync.Once
	return p, func() {
		once.Do(func() {
			pinnedBytes.Add(-int64(len(mem)))
			unpin(mem)
		})
	}, nil
}
