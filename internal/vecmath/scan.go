package vecmath

import "fmt"

// The multi-row scan kernel: the GEMV primitive behind the encoder's
// projection (Matrix.MulVec) and the index scans. A per-row Dot loop
// reloads the probe for every row and keeps only four float32
// accumulators in flight; on amd64 ScanDot instead scores four rows per
// probe load with SSE (dot4rows in scan_amd64.s), one 4-lane register per
// row, so sixteen accumulators overlap float latency.
//
// Every score is bit-identical to Dot: lane j of a row's register is
// Dot's accumulator s_j (elements i ≡ j mod 4, product and sum each
// rounded to float32), and the lanes are summed s0+s1+s2+s3 in Go. The
// exact-index conformance suite compares scores against a Dot-based
// oracle and the encoder's embeddings feed pinned quality values, so the
// kernel must not introduce even one-ulp drift. Rows whose length is not
// a multiple of 4, the tail of fewer than four rows, and every row off
// amd64 go through Dot itself.

// ScanDot computes out[i] = Dot(probe, rows[i·d:(i+1)·d]) for all
// len(out) rows stored contiguously in rows, where d = len(probe).
// It performs no allocation.
func ScanDot(probe, rows, out []float32) {
	d := len(probe)
	n := len(out)
	if len(rows) != n*d {
		panic(fmt.Sprintf("vecmath: ScanDot rows len %d, want %d×%d", len(rows), n, d))
	}
	for i := scanBlocks(probe, rows, out); i < n; i++ {
		out[i] = Dot(probe, rows[i*d:(i+1)*d])
	}
}
