package vecmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// q8Ref is the scalar reference for ScanQ8: an int64 sum, so the test
// also proves the kernel's int32 sums did not overflow.
func q8Ref(p []int16, r []int8) int64 {
	var s int64
	for j := range p {
		s += int64(p[j]) * int64(r[j])
	}
	return s
}

func randCodes(rng *rand.Rand, n int) []int8 {
	c := make([]int8, n)
	for i := range c {
		c[i] = int8(rng.Intn(255) - 127)
	}
	return c
}

func widen(c []int8) []int16 {
	w := make([]int16, len(c))
	for i, v := range c {
		w[i] = int16(v)
	}
	return w
}

func checkScanQ8(t *testing.T, probe []int16, rows []int8, n int) {
	t.Helper()
	d := len(probe)
	out := make([]int32, n)
	ScanQ8(probe, rows, out)
	for i := 0; i < n; i++ {
		if want := q8Ref(probe, rows[i*d:(i+1)*d]); int64(out[i]) != want {
			t.Fatalf("d=%d n=%d row %d: ScanQ8 %d != %d", d, n, i, out[i], want)
		}
	}
}

// forEachQ8Kernel runs f once under every int8 kernel this CPU has (SSE2
// and, when CPUID reports it, AVX2 on amd64), logging each, and restores
// the package-init selection.
func forEachQ8Kernel(t testing.TB, f func()) {
	t.Helper()
	defer restoreQ8Kernel()
	for _, k := range q8Kernels() {
		k.use()
		t.Logf("ScanQ8 kernel: %s", k.name)
		f()
	}
}

// TestScanQ8MatchesScalar covers each kernel's block path (d a multiple
// of 16, four rows at a time), its row tail and the portable loop for
// other widths, on random codes and on all-±127 codes, the largest sums
// the kernels accumulate.
func TestScanQ8MatchesScalar(t *testing.T) {
	forEachQ8Kernel(t, func() { checkScanQ8Shapes(t) })
}

func checkScanQ8Shapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := []int{1, 7, 20, 16, 32, 48, 768, 4096}
	counts := []int{0, 1, 2, 3, 4, 5, 17, 64}
	rows := randCodes(rng, 4096*64)
	for _, d := range dims {
		probe := widen(randCodes(rng, d))
		for _, n := range counts {
			checkScanQ8(t, probe, rows[:n*d], n)
		}
	}
	for _, d := range []int{16, 32, 48, 768, 4096} {
		for _, sign := range []int{1, -1} {
			probe := make([]int16, d)
			for i := range probe {
				probe[i] = int16(127 * sign)
			}
			for _, n := range counts {
				extreme := make([]int8, n*d)
				for i := range extreme {
					extreme[i] = 127
					if i%3 == 0 {
						extreme[i] = -127 // mixed-sign rows too
					}
					if (i/d)%2 == 0 {
						extreme[i] = 127 // even rows all +127
					}
				}
				checkScanQ8(t, probe, extreme, n)
			}
		}
	}
}

// FuzzScanQ8Parity turns arbitrary bytes into a width, a row count, an
// int16 probe (any value, not only Quantize's ±127) and int8 rows, and
// checks ScanQ8 under every kernel this CPU has against the portable
// loop, which wraps modulo 2³² exactly as the kernels' lanes do.
func FuzzScanQ8Parity(f *testing.F) {
	f.Add([]byte{16, 5, 0x7f, 0x80, 0x01, 0xff})
	f.Add([]byte{48, 9, 0x00, 0x80, 0x81, 0x7f, 0x80})
	f.Add([]byte{7, 4, 0x12, 0x34})
	for _, k := range q8Kernels() {
		f.Logf("ScanQ8 kernel: %s", k.name)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		d, n := int(data[0]), int(data[1])%17
		src := data[2:]
		next := 0
		b := func() byte { v := src[next%len(src)]; next++; return v }
		probe := make([]int16, d)
		for i := range probe {
			probe[i] = int16(binary.LittleEndian.Uint16([]byte{b(), b()}))
		}
		rows := make([]int8, n*d)
		for i := range rows {
			rows[i] = int8(b())
		}
		out := make([]int32, n)
		defer restoreQ8Kernel()
		for _, k := range q8Kernels() {
			k.use()
			ScanQ8(probe, rows, out)
			for i := 0; i < n; i++ {
				if want := dotQ8(probe, rows[i*d:(i+1)*d]); out[i] != want {
					t.Fatalf("%s d=%d n=%d row %d: ScanQ8 %d != %d", k.name, d, n, i, out[i], want)
				}
			}
		}
	})
}

// quantBound returns, in float64, the dot q·x, the bound
// s_q·s_x·(q̂·x̂) + err_q·‖x‖ + ‖q̃‖·err_x, and the float64 rounding
// either side may carry (d·2⁻⁵²·‖q‖·‖x‖; the bound is tight when both
// vectors quantise exactly), after checking that each err bounds its
// vector's residual.
func quantBound(t *testing.T, q, x []float32) (dot, bound, slack float64) {
	t.Helper()
	qc := make([]int16, len(q))
	xc := make([]int8, len(x))
	sq, eq := Quantize(q, qc)
	sx, ex := Quantize(x, xc)
	residual := func(v []float32, s float32, code func(int) float64) float64 {
		var r2 float64
		for i := range v {
			r := float64(v[i]) - float64(s)*code(i)
			r2 += r * r
		}
		return math.Sqrt(r2)
	}
	if r := residual(q, sq, func(i int) float64 { return float64(qc[i]) }); float64(eq) < r {
		t.Fatalf("probe err %g < residual %g", eq, r)
	}
	if r := residual(x, sx, func(i int) float64 { return float64(xc[i]) }); float64(ex) < r {
		t.Fatalf("row err %g < residual %g", ex, r)
	}
	var xnorm, qnorm, qtnorm float64
	for i := range x {
		dot += float64(q[i]) * float64(x[i])
		xnorm += float64(x[i]) * float64(x[i])
		qnorm += float64(q[i]) * float64(q[i])
		qt := float64(sq) * float64(qc[i])
		qtnorm += qt * qt
	}
	codeDot := q8Ref(qc, xc)
	bound = float64(sq)*float64(sx)*float64(codeDot) + float64(eq)*math.Sqrt(xnorm) + math.Sqrt(qtnorm)*float64(ex)
	slack = float64(len(x)+8) * 0x1p-52 * math.Sqrt(qnorm*xnorm)
	return dot, bound, slack
}

// TestQuantizeBoundProperty checks the pre-filter's inequality on the
// vector shapes that stress it: random unit and non-unit vectors,
// one-hot vectors (everything quantises exactly), constant vectors,
// vectors whose components sit exactly on rounding ties and on the ±127
// boundary, and vectors whose scale underflows.
func TestQuantizeBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := map[string]func(d int) []float32{
		"unit": func(d int) []float32 {
			v := randVec(rng, d)
			Normalize(v)
			return v
		},
		"non-unit": func(d int) []float32 {
			v := randVec(rng, d)
			Scale(float32(math.Pow(10, rng.Float64()*12-6)), v)
			return v
		},
		"one-hot": func(d int) []float32 {
			v := make([]float32, d)
			v[rng.Intn(d)] = float32(rng.NormFloat64())
			return v
		},
		"constant": func(d int) []float32 {
			v := make([]float32, d)
			c := float32(rng.NormFloat64())
			for i := range v {
				v[i] = c
			}
			return v
		},
		"scale-boundary": func(d int) []float32 {
			v := make([]float32, d)
			amax := float32(rng.Float64() + 0.5)
			for i := range v {
				// k+0.5 steps of amax/127: every component is a rounding tie.
				k := float32(rng.Intn(127)) + 0.5
				v[i] = amax * k / 127
				if rng.Intn(2) == 0 {
					v[i] = -v[i]
				}
			}
			v[rng.Intn(d)] = amax
			v[rng.Intn(d)] = -amax
			return v
		},
		"underflow": func(d int) []float32 {
			v := make([]float32, d)
			for i := range v {
				v[i] = math.Float32frombits(uint32(rng.Intn(100)))
			}
			return v
		},
	}
	for name, gen := range shapes {
		for _, d := range []int{1, 16, 17, 768} {
			for trial := 0; trial < 50; trial++ {
				q, x := gen(d), gen(d)
				if trial%2 == 1 {
					q = shapes["unit"](d) // mixed shapes
				}
				dot, bound, slack := quantBound(t, q, x)
				if dot > bound+slack {
					t.Fatalf("%s d=%d: dot %g > bound %g (+%g)", name, d, dot, bound, slack)
				}
			}
		}
	}
}

// TestQuantizeSpecialValues pins the non-finite and zero cases: a NaN or
// ±Inf anywhere gives err = +Inf (its bound never prunes), and a zero
// vector gives scale 0 and err 0.
func TestQuantizeSpecialValues(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for _, at := range []int{0, 5, 15} {
			v := make([]float32, 16)
			for i := range v {
				v[i] = float32(i) - 7
			}
			v[at] = bad
			code := make([]int8, 16)
			scale, err := Quantize(v, code)
			if !math.IsInf(float64(err), 1) || scale != 0 {
				t.Fatalf("%v at %d: scale %v err %v, want 0 and +Inf", bad, at, scale, err)
			}
		}
	}
	code := make([]int16, 32)
	code[3] = 9 // stale content must be cleared
	scale, err := Quantize(make([]float32, 32), code)
	if scale != 0 || err != 0 {
		t.Fatalf("zero vector: scale %v err %v, want 0 and 0", scale, err)
	}
	for i, c := range code {
		if c != 0 {
			t.Fatalf("zero vector: code[%d] = %d", i, c)
		}
	}
}

// BenchmarkScanQ8 times the int8 scan over 768-d lists of 128 rows under
// each kernel this CPU has: "hot" rescans one list that stays in cache,
// "12MB" and "cold" scan a random list out of 12 MB (a 4,096-entry
// 768-d tenant's codes) or 48 MB of codes each iteration, as an index's
// probed lists are.
func BenchmarkScanQ8(b *testing.B) {
	const d, list = 768, 128
	rng := rand.New(rand.NewSource(9))
	probe := widen(randCodes(rng, d))
	out := make([]int32, list)
	footprints := []struct {
		name  string
		bytes int
	}{{"hot", d * list}, {"12MB", 12 << 20}, {"cold", 48 << 20}}
	codes := make([][]int8, len(footprints))
	for i, fp := range footprints {
		codes[i] = randCodes(rng, fp.bytes)
	}
	defer restoreQ8Kernel()
	for _, k := range q8Kernels() {
		for i, fp := range footprints {
			rows, lists := codes[i], fp.bytes/(d*list)
			b.Run(k.name+"/"+fp.name, func(b *testing.B) {
				k.use()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					l := rng.Intn(lists) * d * list
					ScanQ8(probe, rows[l:l+d*list], out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*list), "ns/row")
			})
		}
	}
}
