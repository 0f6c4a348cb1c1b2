package embed

import "syscall"

// unpin unmaps a pinned model's weights. A failed munmap leaves them
// mapped and readable, which is no worse than not releasing them.
func unpin(mem []byte) { _ = syscall.Munmap(mem) }
