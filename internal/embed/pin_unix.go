//go:build linux || darwin

package embed

import (
	"sync"
	"syscall"
	"unsafe"
)

// Pin returns a model with m's architecture and weights whose weights
// live in one read-only anonymous mapping outside the Go heap, and the
// func that releases it. The garbage collector neither scans pinned
// weights nor counts them toward its heap goal, so a serving process
// whose model never changes stops paying GC headroom for it; a write
// into them faults. m itself is left as it was.
//
// The pinned model must not be used once release has run: a use after
// it faults loudly. On Linux release revokes all access before it frees
// the pages and keeps the range reserved, so such a use can never read
// memory something else now holds; elsewhere it unmaps the range.
// Release is idempotent. If the mapping cannot be made, Pin returns m
// and a no-op.
func Pin(m *Model) (*Model, func()) {
	n := m.WeightCount()
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return m, func() {}
	}
	w := unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(mem))), n)
	m.CopyWeights(w)
	if err := syscall.Mprotect(mem, syscall.PROT_READ); err != nil {
		_ = syscall.Munmap(mem) // nothing references the copy yet
		return m, func() {}
	}
	p, err := FromWeights(m.Cfg, w)
	if err != nil {
		panic(err) // w has m's own weight count
	}
	pinnedBytes.Add(int64(len(mem)))
	var once sync.Once
	return p, func() {
		once.Do(func() {
			pinnedBytes.Add(-int64(len(mem)))
			unpin(mem)
		})
	}
}
