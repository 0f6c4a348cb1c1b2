// Package quantize provides int8 scalar quantization for embeddings: a
// 4× storage reduction that composes with PCA compression (§III-A.4),
// giving the cache a second storage/accuracy operating point. A 768-d
// float32 embedding (3 KB) becomes 768 bytes; PCA-64 + int8 is 64 bytes —
// 48× smaller than the raw embedding.
//
// Quantization is symmetric per-vector: q_i = round(x_i / scale) with
// scale = max|x_i| / 127. Unit-norm inputs keep the cosine error small
// (≈0.1% for 768-d embeddings). It is a storage format, measured by the
// abl-quantize experiment; serving indexes score float32 rows (int8
// graph traversal measured slower at 64-d and at 768-d).
package quantize

import (
	"fmt"
	"math"

	"repro/internal/vecmath"
)

// Vector is an int8-quantised embedding with its reconstruction scale.
type Vector struct {
	Scale float32
	Data  []int8
}

// Quantize compresses x into an int8 vector. A zero vector quantises to
// scale 0 and all-zero codes.
func Quantize(x []float32) Vector {
	data := make([]int8, len(x))
	return Vector{Scale: QuantizeInto(x, data), Data: data}
}

// QuantizeInto quantises x into the caller-provided code row (which must
// have len(x) elements) and returns the reconstruction scale.
func QuantizeInto(x []float32, dst []int8) float32 {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("quantize: QuantizeInto dst len %d, want %d", len(dst), len(x)))
	}
	var maxAbs float32
	for _, v := range x {
		if a := abs32(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0
	}
	scale := maxAbs / 127
	inv := 1 / scale
	for i, v := range x {
		r := math.Round(float64(v * inv))
		switch {
		case r > 127:
			r = 127
		case r < -127:
			r = -127
		}
		dst[i] = int8(r)
	}
	return scale
}

// Dequantize reconstructs the float32 vector.
func (q Vector) Dequantize() []float32 {
	out := make([]float32, len(q.Data))
	for i, v := range q.Data {
		out[i] = float32(v) * q.Scale
	}
	return out
}

// Bytes reports the storage footprint: one byte per element plus the
// 4-byte scale.
func (q Vector) Bytes() int { return len(q.Data) + 4 }

// CosineError measures the absolute cosine deviation introduced by
// quantising both sides of a pair, for calibration and tests.
func CosineError(a, b []float32) float64 {
	exact := vecmath.Cosine(a, b)
	qa, qb := Quantize(a), Quantize(b)
	approx := vecmath.Cosine(qa.Dequantize(), qb.Dequantize())
	return math.Abs(float64(exact - approx))
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}
