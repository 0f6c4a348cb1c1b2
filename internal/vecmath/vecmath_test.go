package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDot(t *testing.T) {
	cases := []struct {
		a, b []float32
		want float32
	}{
		{nil, nil, 0},
		{[]float32{1}, []float32{2}, 2},
		{[]float32{1, 2, 3}, []float32{4, 5, 6}, 32},
		{[]float32{1, 2, 3, 4, 5}, []float32{1, 1, 1, 1, 1}, 15},
		{[]float32{-1, 2, -3, 4}, []float32{5, -6, 7, -8}, -70},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); got != c.want {
			t.Errorf("Dot(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float32{1, 2}, []float32{1})
}

func TestAxpy(t *testing.T) {
	y := []float32{1, 2, 3}
	Axpy(2, []float32{1, 1, 1}, y)
	want := []float32{3, 4, 5}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy result %v, want %v", y, want)
		}
	}
}

func TestNormalize(t *testing.T) {
	x := []float32{3, 4}
	n := Normalize(x)
	if n != 5 {
		t.Fatalf("Normalize returned norm %v, want 5", n)
	}
	if !almostEqual(float64(Norm(x)), 1, 1e-6) {
		t.Fatalf("normalized norm = %v, want 1", Norm(x))
	}
}

func TestNormalizeZeroVector(t *testing.T) {
	x := []float32{0, 0, 0}
	if n := Normalize(x); n != 0 {
		t.Fatalf("Normalize(zero) = %v, want 0", n)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("Normalize mutated a zero vector")
		}
	}
}

func TestCosineIdentical(t *testing.T) {
	x := []float32{1, 2, 3}
	if c := Cosine(x, x); !almostEqual(float64(c), 1, 1e-6) {
		t.Fatalf("Cosine(x, x) = %v, want 1", c)
	}
}

func TestCosineOpposite(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{-1, -2, -3}
	if c := Cosine(a, b); !almostEqual(float64(c), -1, 1e-6) {
		t.Fatalf("Cosine(a, -a) = %v, want -1", c)
	}
}

func TestCosineOrthogonal(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if c := Cosine(a, b); c != 0 {
		t.Fatalf("Cosine(orthogonal) = %v, want 0", c)
	}
}

func TestCosineZeroVector(t *testing.T) {
	if c := Cosine([]float32{0, 0}, []float32{1, 1}); c != 0 {
		t.Fatalf("Cosine with zero vector = %v, want 0", c)
	}
}

// Property: cosine similarity is always within [-1, 1].
func TestCosineBoundsProperty(t *testing.T) {
	f := func(a, b []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		c := Cosine(clean(a[:n]), clean(b[:n]))
		return c >= -1 && c <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: cosine is invariant under positive scaling of either argument.
func TestCosineScaleInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(32)
		a := randVec(rng, n)
		b := randVec(rng, n)
		alpha := float32(rng.Float64()*10 + 0.1)
		c1 := Cosine(a, b)
		scaled := Clone(a)
		Scale(alpha, scaled)
		c2 := Cosine(scaled, b)
		if !almostEqual(float64(c1), float64(c2), 1e-4) {
			t.Fatalf("cosine not scale-invariant: %v vs %v (alpha=%v)", c1, c2, alpha)
		}
	}
}

// Property: after Normalize, Dot equals Cosine.
func TestNormalizedDotEqualsCosineProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		a := randVec(rng, n)
		b := randVec(rng, n)
		c := Cosine(a, b)
		Normalize(a)
		Normalize(b)
		d := Dot(a, b)
		if !almostEqual(float64(c), float64(d), 1e-4) {
			t.Fatalf("normalized dot %v != cosine %v", d, c)
		}
	}
}

func TestSub(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 6, 1}
	got := Sub(a, b)
	want := []float32{-3, -4, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sub(a, b) = %v, want %v", got, want)
		}
	}
	if &got[0] == &a[0] {
		t.Fatal("Sub wrote into its operand")
	}
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// clean maps quick-generated values into a finite, overflow-safe range: the
// kernels document a contract of finite inputs whose squared sums fit in
// float32, so the property is checked over that domain.
func clean(v []float32) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			out[i] = 1
			continue
		}
		// Compress magnitude into [-1e3, 1e3] preserving sign and ordering.
		out[i] = float32(math.Tanh(f/1e3) * 1e3)
	}
	return out
}
