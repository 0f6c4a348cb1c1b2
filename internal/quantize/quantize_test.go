package quantize

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

func TestRoundTripError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		x := unit(rng, 768)
		q := Quantize(x)
		y := q.Dequantize()
		for i := range x {
			// Max per-element error is scale/2.
			if math.Abs(float64(x[i]-y[i])) > float64(q.Scale)/2+1e-7 {
				t.Fatalf("element %d: %v -> %v exceeds half-scale %v", i, x[i], y[i], q.Scale/2)
			}
		}
	}
}

func TestZeroVector(t *testing.T) {
	q := Quantize(make([]float32, 8))
	if q.Scale != 0 {
		t.Fatalf("zero vector scale = %v", q.Scale)
	}
	for _, v := range q.Dequantize() {
		if v != 0 {
			t.Fatal("zero vector did not round-trip to zero")
		}
	}
}

func TestCosinePreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		a, b := unit(rng, 768), unit(rng, 768)
		if e := CosineError(a, b); e > 0.01 {
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
		if e := CosineError(a, b); e > 0.04 {
			t.Fatalf("cosine error %v exceeds 4%% for 64-d unit vectors", e)
		}
	}
}

func TestQuantizeIntoMatchesQuantize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{1, 8, 64, 768} {
		v := unit(rng, dim)
		want := Quantize(v)
		dst := make([]int8, dim)
		scale := QuantizeInto(v, dst)
		if scale != want.Scale {
			t.Fatalf("dim %d: scale %v != %v", dim, scale, want.Scale)
		}
		for i := range dst {
			if dst[i] != want.Data[i] {
				t.Fatalf("dim %d: code %d differs", dim, i)
			}
		}
	}
}

func TestBytes(t *testing.T) {
	q := Quantize(make([]float32, 768))
	if q.Bytes() != 772 {
		t.Fatalf("Bytes = %d, want 772", q.Bytes())
	}
}

// Property: codes always lie in [-127, 127] (symmetric range, no -128),
// and quantisation is idempotent on already-representable values.
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
		q := Quantize(x)
		for _, c := range q.Data {
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

func BenchmarkQuantize768(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := unit(rng, 768)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Quantize(x)
	}
}
