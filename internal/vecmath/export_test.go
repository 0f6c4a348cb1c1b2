package vecmath

import "runtime"

// q8Kernel is one int8 block kernel ScanQ8 can run on this CPU; use
// selects it for every ScanQ8 call until another is selected.
type q8Kernel struct {
	name string
	use  func()
}

// q8Kernels lists the int8 kernels this CPU runs: SSE2 always on amd64,
// AVX2 when CPUID reports it, and the portable loop elsewhere. Tests that
// iterate it leave the package-init selection in place with
// restoreQ8Kernel.
func q8Kernels() []q8Kernel {
	if runtime.GOARCH != "amd64" {
		return []q8Kernel{{"portable", func() {}}}
	}
	ks := []q8Kernel{{"sse2", func() { useAVX2 = false }}}
	if hasAVX2 {
		ks = append(ks, q8Kernel{"avx2", func() { useAVX2 = true }})
	}
	return ks
}

// restoreQ8Kernel reinstates the kernel selected at package init.
func restoreQ8Kernel() { useAVX2 = hasAVX2 }
