package vecmath

// scanBlocks scores the leading rows of a ScanDot call in blocks of four
// through the SSE kernel dot4rows and returns how many rows it scored;
// ScanDot scores the rest with Dot. It scores none when d is not a
// positive multiple of 4, so every lane holds exactly one of Dot's four
// accumulators. The horizontal sum is Dot's own s0+s1+s2+s3, so each
// score is bit-identical to Dot's.
func scanBlocks(probe, rows, out []float32) int {
	d := len(probe)
	if d == 0 || d%4 != 0 {
		return 0
	}
	var acc [16]float32
	i := 0
	for ; i+4 <= len(out); i += 4 {
		dot4rows(probe, rows[i*d:(i+4)*d], &acc)
		o := out[i : i+4 : i+4]
		o[0] = acc[0] + acc[1] + acc[2] + acc[3]
		o[1] = acc[4] + acc[5] + acc[6] + acc[7]
		o[2] = acc[8] + acc[9] + acc[10] + acc[11]
		o[3] = acc[12] + acc[13] + acc[14] + acc[15]
	}
	return i
}

// dot4rows is implemented in scan_amd64.s. SSE is baseline on amd64, so
// it needs no CPU-feature check.
//
//go:noescape
func dot4rows(p, rows []float32, acc *[16]float32)

// scanQ8Blocks scores a ScanQ8 call's rows in blocks of four through
// dotQ8x4AVX2 when the CPU has AVX2 and through the SSE2 kernel dotQ8x4
// otherwise, and returns how many leading rows it scored; ScanQ8 scores
// the rest with dotQ8. A tail of fewer than four rows is scored by one
// more block ending at the last row, which re-scores up to three rows
// with identical results, so only calls of fewer than four rows, or a d
// that is not a positive multiple of 16 (both kernels' step), reach
// dotQ8. Each row's four int32 lanes are summed here; integer addition is
// associative, so the result equals dotQ8's whatever the kernel or order.
func scanQ8Blocks(probe []int16, rows []int8, out []int32) int {
	d, n := len(probe), len(out)
	if d == 0 || d%16 != 0 || n < 4 {
		return 0
	}
	var acc [16]int32
	for i := 0; i < n; i += 4 {
		i = min(i, n-4)
		if useAVX2 {
			dotQ8x4AVX2(probe, rows[i*d:(i+4)*d], &acc)
		} else {
			dotQ8x4(probe, rows[i*d:(i+4)*d], &acc)
		}
		o := out[i : i+4 : i+4]
		o[0] = acc[0] + acc[1] + acc[2] + acc[3]
		o[1] = acc[4] + acc[5] + acc[6] + acc[7]
		o[2] = acc[8] + acc[9] + acc[10] + acc[11]
		o[3] = acc[12] + acc[13] + acc[14] + acc[15]
	}
	return n
}

// hasAVX2 reports whether this CPU runs AVX2 and the OS saves the YMM
// registers it uses; useAVX2 selects dotQ8x4AVX2 for ScanQ8. Both are
// set once, here, from CPUID; no flag or environment variable changes
// them (the kernel parity tests switch useAVX2 to cover both kernels).
var (
	hasAVX2 = cpuHasAVX2()
	useAVX2 = hasAVX2
)

// cpuHasAVX2 reads CPUID leaf 1 for OSXSAVE (ECX bit 27) and AVX (bit 28),
// XCR0 for the SSE and AVX state bits (1 and 2), and CPUID leaf 7 for
// AVX2 (EBX bit 5).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv0()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// dotQ8x4 is implemented in scan_amd64.s. SSE2 is baseline on amd64, so
// it needs no CPU-feature check.
//
//go:noescape
func dotQ8x4(p []int16, rows []int8, acc *[16]int32)

// dotQ8x4AVX2 is implemented in scan_amd64.s; it may run only when
// hasAVX2 is set.
//
//go:noescape
func dotQ8x4AVX2(p []int16, rows []int8, acc *[16]int32)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() (eax uint32)
