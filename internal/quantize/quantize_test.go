// Package quantize_test pins the int8 storage format that the
// abl-quantize experiment measures and the serving IVF lists store:
// vecmath.Quantize, symmetric per vector, q_i = round(x_i / scale) with
// scale = max|x_i| / 127. The directory holds only these tests.
package quantize_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vecmath"
)

func unit(rng *rand.Rand, d int) []float32 {
	v := make([]float32, d)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	vecmath.Normalize(v)
	return v
}

// roundTrip quantises x and returns its codes, its scale and its float32
// reconstruction code[i]·scale.
func roundTrip(x []float32) ([]int8, float32, []float32) {
	code := make([]int8, len(x))
	scale, _ := vecmath.Quantize(x, code)
	y := make([]float32, len(code))
	for i, c := range code {
		y[i] = float32(c) * scale
	}
	return code, scale, y
}

// cosineError is the absolute cosine deviation int8 storage adds between
// a and b.
func cosineError(a, b []float32) float64 {
	_, _, qa := roundTrip(a)
	_, _, qb := roundTrip(b)
	return math.Abs(float64(vecmath.Cosine(a, b) - vecmath.Cosine(qa, qb)))
}

func TestRoundTripError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		x := unit(rng, 768)
		_, scale, y := roundTrip(x)
		for i := range x {
			// Max per-element error is scale/2.
			if math.Abs(float64(x[i]-y[i])) > float64(scale)/2+1e-7 {
				t.Fatalf("element %d: %v -> %v exceeds half-scale %v", i, x[i], y[i], scale/2)
			}
		}
	}
}

func TestZeroVector(t *testing.T) {
	_, scale, y := roundTrip(make([]float32, 8))
	if scale != 0 {
		t.Fatalf("zero vector scale = %v", scale)
	}
	for _, v := range y {
		if v != 0 {
			t.Fatal("zero vector did not round-trip to zero")
		}
	}
}

func TestCosinePreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		a, b := unit(rng, 768), unit(rng, 768)
		if e := cosineError(a, b); e > 0.01 {
			t.Fatalf("cosine error %v exceeds 1%% for 768-d unit vectors", e)
		}
	}
}

func TestCosinePreservedLowDim(t *testing.T) {
	// Lower dimension → coarser quantisation; the error budget is looser
	// but still small enough for threshold decisions.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		a, b := unit(rng, 64), unit(rng, 64)
		if e := cosineError(a, b); e > 0.04 {
			t.Fatalf("cosine error %v exceeds 4%% for 64-d unit vectors", e)
		}
	}
}

// Property: codes always lie in [-127, 127] (symmetric range, no -128)
// for arbitrary components squashed into (-1, 1).
func TestCodeRangeProperty(t *testing.T) {
	f := func(raw []float32) bool {
		x := make([]float32, len(raw))
		for i, v := range raw {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				f = 1
			}
			x[i] = float32(math.Tanh(f))
		}
		code, _, _ := roundTrip(x)
		for _, c := range code {
			if c == -128 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
