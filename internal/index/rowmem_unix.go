//go:build linux || darwin

package index

import (
	"syscall"
	"unsafe"
)

// newRowMem returns zeroed room for floats row values and as many code
// values, both in mem, one private anonymous mapping outside the Go
// heap, to be passed to freeRowMem once nothing reads it. The kernel
// faults a page in on its first write, so room no row has reached costs
// no memory. If the mapping cannot be made the room is on the heap and
// mem is nil.
func newRowMem(floats int) (vecs []float32, codes []int8, mem []byte) {
	mem, err := syscall.Mmap(-1, 0, 5*floats, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]float32, floats), make([]int8, floats), nil
	}
	mappedBytes.Add(int64(len(mem)))
	vecs = unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), floats)
	codes = unsafe.Slice((*int8)(unsafe.Pointer(&mem[4*floats])), floats)
	return vecs, codes, mem
}

// freeRowMem unmaps a mapping newRowMem made. The range is released, not
// kept reserved: lists grow and die thousands of times, and a reserved
// range per dead mapping would leak address space. A failed munmap
// leaves the mapping in place, still counted.
func freeRowMem(mem []byte) {
	if syscall.Munmap(mem) == nil {
		mappedBytes.Add(-int64(len(mem)))
	}
}
