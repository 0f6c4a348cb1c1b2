// Package vecmath provides the dense float32 linear-algebra kernels used by
// every numeric component of the MeanCache reproduction: the embedding
// encoders, the trainer, PCA compression, and the cosine-similarity cache
// index.
//
// The package is deliberately small and allocation-conscious. All kernels
// operate on plain []float32 slices (vectors) or on the row-major Matrix
// type, and are written in Go so the compiler can keep operands in
// registers, with two exceptions, both many-rows-one-probe passes that
// score four rows at a time with an assembly kernel on amd64
// (scan_amd64.s) and are exact against a portable reference. ScanDot,
// behind the encoder's projection (Matrix.MulVec) and every index scan
// (Flat's arena, IVF's lists and centroids), is SSE and bit-identical to
// Dot, which stays the scalar reference. ScanQ8 scores int8 codes
// (Quantize) with exact int32 sums, in SSE2, or in AVX2 when CPUID
// reports the CPU has it; IVF bounds each row's exact score with it
// before scoring the row with Dot. Parallel variants
// dispatch work through ParallelFor, a bounded worker pool sized to
// runtime.GOMAXPROCS(0), following the parallelisation idiom from Effective
// Go: independent pieces launched per core with a channel to signal
// completion.
package vecmath

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. The slices must have equal
// length; Dot panics otherwise, because a silent truncation would corrupt
// downstream similarity scores.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// Axpy computes y += alpha*x in place. Lengths must match.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecmath: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm returns the Euclidean (L2) norm of x.
func Norm(x []float32) float32 {
	return float32(math.Sqrt(float64(Dot(x, x))))
}

// Normalize scales x to unit L2 norm in place and returns the original norm.
// A zero vector is left unchanged and 0 is returned, so callers can detect
// degenerate embeddings instead of propagating NaNs.
func Normalize(x []float32) float32 {
	n := Norm(x)
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range x {
		x[i] *= inv
	}
	return n
}

// Cosine returns the cosine similarity of a and b in [-1, 1]. If either
// vector is zero the similarity is defined as 0.
func Cosine(a, b []float32) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	c := Dot(a, b) / (na * nb)
	// Clamp against floating-point drift so downstream threshold comparisons
	// and acos-style transforms stay in range.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// Sub returns a newly allocated element-wise difference a-b.
func Sub(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Sub length mismatch %d != %d", len(a), len(b)))
	}
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Clone returns a copy of x.
func Clone(x []float32) []float32 {
	out := make([]float32, len(x))
	copy(out, x)
	return out
}

// Zero clears x in place.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}
