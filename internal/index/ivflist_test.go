package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/vecmath"
)

// denseProbedSearch is the reference for IVF's code pre-filter: the same
// probe selection IVF.SearchAppend makes, then every row of every probed
// list scored with one ScanDot pass and no bound at all.
func denseProbedSearch(x *IVF, vec []float32, k int, tau float32) []Hit {
	scores := make([]float32, x.centroids.Rows)
	vecmath.ScanDot(vec, x.centroids.Data, scores)
	var hits []Hit
	for _, li := range x.selectProbes(scores, nil) {
		l := x.lists[li]
		out := make([]float32, len(l.ids))
		vecmath.ScanDot(vec, l.vecs, out)
		for i, s := range out {
			if s >= tau {
				hits = append(hits, Hit{ID: l.ids[i], Score: s})
			}
		}
	}
	return topKHits(hits, k)
}

// sameHits fails t unless got and want hold the same IDs in the same
// order with bit-identical scores.
func sameHits(t *testing.T, what string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
			t.Fatalf("%s: hit %d is %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float32bits(got[i].Score), want[i], math.Float32bits(want[i].Score))
		}
	}
}

// prefilterRows builds clustered unit rows with non-unit, zero, NaN and
// ±Inf rows mixed in, and the probes the exactness tests search with:
// stored rows, perturbed rows, random and scaled vectors, a zero probe
// and a NaN probe.
func prefilterRows(rng *rand.Rand, n, dim int) (rows, probes [][]float32) {
	rows = clustered(rng, n, 12, dim, 0.35/math.Sqrt(float64(dim)))
	for i := range rows {
		switch i % 50 {
		case 3:
			vecmath.Scale(float32(math.Pow(10, rng.Float64()*4-2)), rows[i]) // non-unit
		case 11:
			vecmath.Zero(rows[i])
		case 23:
			rows[i][rng.Intn(dim)] = float32(math.NaN())
		}
	}
	rows[n-1][0] = float32(math.Inf(1)) // one list keeps a ±Inf norm
	for i := 0; i < 40; i++ {
		p := vecmath.Clone(rows[rng.Intn(n)])
		switch i % 4 {
		case 1:
			for j := range p {
				p[j] += float32(rng.NormFloat64() * 0.2 / math.Sqrt(float64(dim)))
			}
			vecmath.Normalize(p)
		case 2:
			p = unit(rng, dim)
		case 3:
			vecmath.Scale(3, p)
		}
		probes = append(probes, p)
	}
	nan := unit(rng, dim)
	nan[dim/2] = float32(math.NaN())
	probes = append(probes, make([]float32, dim), nan)
	return rows, probes
}

var prefilterTaus = []float32{-1, 0, 0.5, 0.69, 0.9, 1}

// TestIVFPrefilterMatchesDenseScan pins the pre-filter's exactness: for
// every probe and tau, IVF's search returns exactly — IDs, order and
// score bits — what a dense ScanDot of the same probed lists returns.
// It checks once after the load and again after a third of the rows were
// swap-deleted, which moves rows, and their code columns, inside lists.
func TestIVFPrefilterMatchesDenseScan(t *testing.T) {
	for _, dim := range []int{16, 768} {
		rng := rand.New(rand.NewSource(int64(dim)))
		rows, probes := prefilterRows(rng, 1200, dim)
		x := trainedIVF(dim, IVFConfig{NList: 16, NProbe: 4, Seed: 5}, rows, 400)
		for i, v := range rows {
			if err := x.Add(i, v); err != nil {
				t.Fatal(err)
			}
		}
		check := func(phase string) {
			checkListColumns(t, x)
			for pi, p := range probes {
				for _, tau := range prefilterTaus {
					for _, k := range []int{5, len(rows)} {
						what := fmt.Sprintf("d=%d %s: probe %d tau %v k %d", dim, phase, pi, tau, k)
						sameHits(t, what, x.Search(p, k, tau), denseProbedSearch(x, p, k, tau))
					}
				}
			}
		}
		check("loaded")
		for _, id := range rng.Perm(len(rows))[:len(rows)/3] {
			x.Remove(id)
		}
		if want := len(rows) - len(rows)/3; x.Len() != want {
			t.Fatalf("d=%d: Len %d after removals, want %d", dim, x.Len(), want)
		}
		check("after removals")
	}
}

// checkListColumns fails t unless every list row's norm, code, scale and
// error bound are exactly what quantising its vector gives, every
// vacated code byte past the live rows is zero, and, where the platform
// has anonymous mappings, every list's rows and codes live in its
// mapping.
func checkListColumns(t *testing.T, x *IVF) {
	t.Helper()
	code := make([]int8, x.dim)
	for li, l := range x.lists {
		if mappable && cap(l.vecs) > 0 && (len(l.mem) != 5*cap(l.vecs) ||
			unsafe.Pointer(unsafe.SliceData(l.vecs)) != unsafe.Pointer(&l.mem[0]) ||
			unsafe.Pointer(unsafe.SliceData(l.codes)) != unsafe.Pointer(&l.mem[4*cap(l.vecs)])) {
			t.Fatalf("list %d: rows and codes are not in the list's mapping", li)
		}
		for i := range l.ids {
			row := l.row(i)
			scale, err := vecmath.Quantize(row, code)
			if got := l.codes[i*x.dim : (i+1)*x.dim]; !slices.Equal(got, code) {
				t.Fatalf("list %d row %d (id %d): code does not match its vector", li, i, l.ids[i])
			}
			if !sameBits(l.norms[i], vecmath.Norm(row)) || !sameBits(l.scales[i], scale) || !sameBits(l.errs[i], err) {
				t.Fatalf("list %d row %d (id %d): norm/scale/err %v/%v/%v, want %v/%v/%v", li, i, l.ids[i],
					l.norms[i], l.scales[i], l.errs[i], vecmath.Norm(row), scale, err)
			}
		}
		if tail := l.codes[len(l.codes):cap(l.codes)]; slices.ContainsFunc(tail, func(c int8) bool { return c != 0 }) {
			t.Fatalf("list %d: a vacated code row is not zeroed", li)
		}
	}
}

func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// TestIVFPrefilterBoundHolds checks the bound itself, list by list, where
// a dense fallback cannot hide a miss: every row whose Dot reaches tau
// survives the code pre-filter. It also checks that the pre-filter
// earns its keep on clustered 768-d rows at serving thresholds.
func TestIVFPrefilterBoundHolds(t *testing.T) {
	for _, dim := range []int{16, 768} {
		rng := rand.New(rand.NewSource(int64(dim) + 1))
		rows, probes := prefilterRows(rng, 1200, dim)
		x := trainedIVF(dim, IVFConfig{NList: 16, NProbe: 4, Seed: 5}, rows, 400)
		for i, v := range rows {
			if err := x.Add(i, v); err != nil {
				t.Fatal(err)
			}
		}
		sc := &scratch{}
		var scanned, kept int
		for pi, p := range probes {
			q := newQ8Probe(p, make([]int16, dim))
			if q.dense {
				continue // a NaN probe never reaches the codes
			}
			for _, tau := range prefilterTaus {
				for li, l := range x.lists {
					surv := l.survivors(&q, tau-boundMargin, sc)
					in := make(map[int32]bool, len(surv))
					for _, i := range surv {
						in[i] = true
					}
					for i := range l.ids {
						if s := vecmath.Dot(p, l.vecs[i*dim:(i+1)*dim]); s >= tau && !in[int32(i)] {
							t.Fatalf("d=%d probe %d tau %v list %d: row %d scores %v but was pruned", dim, pi, tau, li, i, s)
						}
					}
					if tau >= 0.69 && vecmath.Norm(p) <= 1.0001 {
						scanned += len(l.ids)
						kept += len(surv)
					}
				}
			}
		}
		t.Logf("d=%d: %d of %d rows survived the codes at tau ≥ 0.69", dim, kept, scanned)
		if dim == 768 && kept*5 > scanned {
			t.Fatalf("d=768: %d of %d rows survived at tau ≥ 0.69, want under a fifth", kept, scanned)
		}
	}
}

// TestQ8ProbeDenseCases pins when a probe bypasses the codes: a NaN or
// ±Inf component, or a width whose code dot could overflow int32.
func TestQ8ProbeDenseCases(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(-1))} {
		p := []float32{1, 0, bad, 0}
		if q := newQ8Probe(p, make([]int16, 4)); !q.dense {
			t.Fatalf("probe with %v uses the codes", bad)
		}
	}
	if q := newQ8Probe(make([]float32, vecmath.MaxQ8Dim+1), nil); !q.dense {
		t.Fatal("probe wider than MaxQ8Dim uses the codes")
	}
	if q := newQ8Probe([]float32{0.6, 0.8, 0, 0}, make([]int16, 4)); q.dense {
		t.Fatal("finite probe bypasses the codes")
	}
}

// BenchmarkIVFSearch768 times one search of a 4,096-row 768-d IVF built
// as Adaptive builds a tenant's first IVF (64 lists, 8 probes, trained on
// 1,024 rows) at a serving threshold, with probes near stored rows: the
// shape of a big tenant's hit path. Rows are loosely clustered (cosine
// ≈ 0.65 to their anchor) as sentence embeddings are, so a centroid
// pivot bound prunes almost nothing and the code pre-filter does the work.
func BenchmarkIVFSearch768(b *testing.B) {
	const dim, n = 768, 4096
	rng := rand.New(rand.NewSource(11))
	rows := clustered(rng, n, 48, dim, 1.2/math.Sqrt(dim))
	x := trainedIVF(dim, IVFConfig{NList: 64, Seed: 1}, rows, 1024)
	for i, v := range rows {
		if err := x.Add(i, v); err != nil {
			b.Fatal(err)
		}
	}
	probes := nearProbes(rng, rows, 64)
	dst := make([]Hit, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = x.SearchAppend(probes[i%len(probes)], 5, 0.69, dst[:0])
	}
}

// TestNearestCentroidMatchesDotArgmax: Add's list choice, one ScanDot
// pass over the centroids, is the first maximum of a per-centroid Dot
// loop. Every odd centroid duplicates the even one before it, so every
// best score is a tie, which must resolve to the lower index; widths 768
// and 30 cover the SSE kernel and ScanDot's Dot fallback.
func TestNearestCentroidMatchesDotArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dim := range []int{30, 768} {
		x := trainedIVF(dim, IVFConfig{NList: 16, Seed: 3}, clustered(rng, 200, 8, dim, 0.3), 200)
		for i := 1; i < x.centroids.Rows; i += 2 {
			copy(x.centroids.Row(i), x.centroids.Row(i-1))
		}
		for trial := range 500 {
			vec := unit(rng, dim)
			if trial%5 == 0 {
				vec = slices.Clone(x.centroids.Row(rng.Intn(x.centroids.Rows)))
			}
			want, bestScore := 0, float32(-2)
			for c := range x.centroids.Rows {
				if s := vecmath.Dot(vec, x.centroids.Row(c)); s > bestScore {
					want, bestScore = c, s
				}
			}
			if got := x.nearestCentroid(vec); got != want || got%2 != 0 {
				t.Fatalf("dim %d trial %d: nearestCentroid %d, Dot argmax %d (ties go to the even, lower index)", dim, trial, got, want)
			}
		}
	}
}
