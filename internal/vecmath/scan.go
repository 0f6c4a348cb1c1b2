package vecmath

import "fmt"

// Blocked multi-row scan kernels: the GEMV-style primitives behind the
// index scans. A plain per-row Dot loop reloads the probe from cache for
// every row and gives the CPU only one dependency chain to hide float
// latency behind; the kernels here process two rows per probe load with
// eight independent accumulators, which is where a scalar float32 scan
// tops out before SIMD.
//
// Accumulation order is bit-identical to Dot for every row: four
// accumulators striding the row mod 4, remainder folded into the first,
// summed s0+s1+s2+s3. The exact-index conformance suite compares scores
// against a Dot-based oracle, so the kernels must not introduce even
// one-ulp drift.

// ScanDot computes out[i] = Dot(probe, rows[i·d:(i+1)·d]) for all
// len(out) rows stored contiguously in rows, where d = len(probe).
// It performs no allocation.
func ScanDot(probe, rows, out []float32) {
	d := len(probe)
	n := len(out)
	if len(rows) != n*d {
		panic(fmt.Sprintf("vecmath: ScanDot rows len %d, want %d×%d", len(rows), n, d))
	}
	if d == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	i := 0
	for ; i+2 <= n; i += 2 {
		out[i], out[i+1] = dot2(probe, rows[i*d:(i+1)*d], rows[(i+1)*d:(i+2)*d])
	}
	if i < n {
		out[i] = Dot(probe, rows[i*d:(i+1)*d])
	}
}

// dot2 scores two rows against one probe with eight independent
// accumulators — two Dot-ordered chains interleaved so the probe is
// loaded once per row pair and float latency overlaps. The re-slices to
// len(p) let the compiler drop every bounds check in the inner loop.
func dot2(p, x, y []float32) (float32, float32) {
	x = x[:len(p)]
	y = y[:len(p)]
	var a0, a1, a2, a3, b0, b1, b2, b3 float32
	j := 0
	for ; j+4 <= len(p); j += 4 {
		p0, p1, p2, p3 := p[j], p[j+1], p[j+2], p[j+3]
		a0 += p0 * x[j]
		a1 += p1 * x[j+1]
		a2 += p2 * x[j+2]
		a3 += p3 * x[j+3]
		b0 += p0 * y[j]
		b1 += p1 * y[j+1]
		b2 += p2 * y[j+2]
		b3 += p3 * y[j+3]
	}
	for ; j < len(p); j++ {
		a0 += p[j] * x[j]
		b0 += p[j] * y[j]
	}
	return a0 + a1 + a2 + a3, b0 + b1 + b2 + b3
}
