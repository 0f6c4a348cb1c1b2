package vecmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sameFloat reports whether a and b have the same bits, or are both NaN
// (a NaN's payload depends on operand order, which Dot does not promise).
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkScanDot fails t unless ScanDot scores every row exactly as Dot does.
func checkScanDot(t *testing.T, probe, rows []float32, n int) {
	t.Helper()
	d := len(probe)
	out := make([]float32, n)
	ScanDot(probe, rows, out)
	for i := 0; i < n; i++ {
		// Bit-exact, not approximately equal: the conformance oracle
		// computes scores with Dot, and the encoder's projection must
		// not move a single embedding.
		if want := Dot(probe, rows[i*d:(i+1)*d]); !sameFloat(out[i], want) {
			t.Fatalf("d=%d n=%d row %d: ScanDot %v (%#x) != Dot %v (%#x)",
				d, n, i, out[i], math.Float32bits(out[i]), want, math.Float32bits(want))
		}
	}
}

// TestScanDotMatchesDotExactly covers the kernel's block path (d a
// multiple of 4, four rows at a time), its row tail, the Dot fallback for
// other widths, the encoders' pooled widths (128, 192, 256) at the
// projection's 768 rows, and the index scans' embedding widths (768, 4096).
func TestScanDotMatchesDotExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := []int{1, 3, 4, 7, 16, 64, 128, 192, 256, 768, 4096}
	counts := []int{0, 1, 2, 3, 4, 5, 8, 17, 64, 768, 1025}
	rows := randVec(rng, 4096*1025)
	for _, d := range dims {
		probe := randVec(rng, d)
		for _, n := range counts {
			checkScanDot(t, probe, rows[:n*d], n)
		}
	}
}

// TestScanDotSpecialValues pins parity where float32 arithmetic is least
// forgiving: infinities, NaNs, subnormals, signed zeros and products that
// overflow to infinity or underflow to zero.
func TestScanDotSpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	special := []float32{
		inf, -inf, nan, 0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(1), // smallest subnormals
		math.Float32frombits(0x007fffff), // largest subnormal
		math.SmallestNonzeroFloat32 * 1e6,
		3e38, -3e38, 1e20, -1e20, // products overflow
		1e-20, -1e-20, 1, -1, 0.1,
	}
	rng := rand.New(rand.NewSource(2))
	pick := func(v []float32, specialFrac float64) {
		for i := range v {
			if rng.Float64() < specialFrac {
				v[i] = special[rng.Intn(len(special))]
			} else {
				v[i] = float32(rng.NormFloat64())
			}
		}
	}
	for _, d := range []int{4, 8, 12, 64, 192, 768} {
		for _, frac := range []float64{0.01, 0.2, 1} {
			for _, n := range []int{4, 7, 33} {
				probe := make([]float32, d)
				rows := make([]float32, n*d)
				pick(probe, frac)
				pick(rows, frac)
				checkScanDot(t, probe, rows, n)
			}
		}
	}
}

// FuzzScanDotParity turns arbitrary bytes into a width, a row count, a
// probe and rows (any float32 bit pattern, NaNs and infinities included)
// and checks ScanDot against Dot for every row.
func FuzzScanDotParity(f *testing.F) {
	f.Add([]byte{8, 5, 0x00, 0x00, 0x80, 0x7f, 0x01, 0x00, 0x00, 0x00})
	f.Add([]byte{192, 4, 0x3f, 0x80, 0x00, 0x00, 0xff, 0xff, 0x7f, 0x7f})
	f.Add([]byte{7, 9, 0xc0, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d, n := int(data[0]), int(data[1])%17
		words := data[2:]
		next := 0
		word := func() float32 {
			if len(words) < 4 {
				return 0
			}
			var w [4]byte
			for k := range w {
				w[k] = words[next%len(words)]
				next++
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(w[:]))
		}
		probe := make([]float32, d)
		for i := range probe {
			probe[i] = word()
		}
		rows := make([]float32, n*d)
		for i := range rows {
			rows[i] = word()
		}
		checkScanDot(t, probe, rows, n)
	})
}

// TestScanKernelsZeroAlloc is the allocation gate for the scan kernels:
// after warmup they must not allocate at all.
func TestScanKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	probe := randVec(rng, 64)
	rows := make([]float32, 100*64)
	out := make([]float32, 100)
	if n := testing.AllocsPerRun(50, func() { ScanDot(probe, rows, out) }); n != 0 {
		t.Fatalf("ScanDot allocates %v per run, want 0", n)
	}
	qprobe := make([]int16, 64)
	qrows := make([]int8, 100*64)
	qout := make([]int32, 100)
	if n := testing.AllocsPerRun(50, func() { ScanQ8(qprobe, qrows, qout) }); n != 0 {
		t.Fatalf("ScanQ8 allocates %v per run, want 0", n)
	}
}

func BenchmarkScanDot64x20k(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	probe := randVec(rng, 64)
	rows := make([]float32, 20000*64)
	for i := range rows {
		rows[i] = float32(rng.NormFloat64())
	}
	out := make([]float32, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanDot(probe, rows, out)
	}
}

// BenchmarkMulVec768x192 times the encoder's projection: mpnet-sim's W
// is 768 rows of 192, applied to one pooled vector per encode.
func BenchmarkMulVec768x192(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	w := NewMatrix(768, 192)
	w.RandomizeNormal(rng, 1)
	x := randVec(rng, 192)
	dst := make([]float32, 768)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.MulVec(dst, x)
	}
}
