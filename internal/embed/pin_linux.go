package embed

import "syscall"

// unpin frees a pinned model's pages but keeps its address range
// reserved with no access: a munmap would let a later mapping (the next
// Pin, say) take the range, and a stale reference would then read that
// mapping's bytes instead of faulting.
func unpin(mem []byte) {
	if syscall.Mprotect(mem, syscall.PROT_NONE) != nil {
		return // still readable: keep the weights rather than zero them under a reader
	}
	// Should this fail the pages stay resident, but still unreadable.
	_ = syscall.Madvise(mem, syscall.MADV_DONTNEED)
}
