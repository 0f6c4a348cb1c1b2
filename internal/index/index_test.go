package index

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

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

// clustered generates vectors around nc well-separated anchors, the
// geometry IVF is designed for.
func clustered(rng *rand.Rand, n, nc, d int, spread float64) [][]float32 {
	anchors := make([][]float32, nc)
	for i := range anchors {
		anchors[i] = unit(rng, d)
	}
	out := make([][]float32, n)
	for i := range out {
		a := anchors[i%nc]
		v := vecmath.Clone(a)
		for j := range v {
			v[j] += float32(rng.NormFloat64() * spread)
		}
		vecmath.Normalize(v)
		out[i] = v
	}
	return out
}

func TestFlatAddSearchRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewFlat(16)
	vecs := make([][]float32, 20)
	for i := range vecs {
		vecs[i] = unit(rng, 16)
		if err := f.Add(i, vecs[i]); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if f.Len() != 20 {
		t.Fatalf("Len = %d, want 20", f.Len())
	}
	hits := f.Search(vecs[7], 3, 0.99)
	if len(hits) != 1 || hits[0].ID != 7 {
		t.Fatalf("Search(self) = %v", hits)
	}
	f.Remove(7)
	if f.Len() != 19 {
		t.Fatalf("Len after remove = %d", f.Len())
	}
	if hits := f.Search(vecs[7], 3, 0.99); len(hits) != 0 {
		t.Fatalf("removed vector still found: %v", hits)
	}
	// Other IDs still resolve after the swap-delete.
	for i := 0; i < 20; i++ {
		if i == 7 {
			continue
		}
		hits := f.Search(vecs[i], 1, 0.99)
		if len(hits) != 1 || hits[0].ID != i {
			t.Fatalf("vector %d lost after remove: %v", i, hits)
		}
	}
}

func TestFlatRejectsDuplicateAndWrongDim(t *testing.T) {
	f := NewFlat(4)
	v := []float32{1, 0, 0, 0}
	if err := f.Add(1, v); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(1, v); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := f.Add(2, []float32{1, 0}); err == nil {
		t.Fatal("wrong-dim vector accepted")
	}
	f.Remove(99) // absent id: no-op
}

func TestFlatTopKOrdering(t *testing.T) {
	f := NewFlat(4)
	f.Add(0, []float32{1, 0, 0, 0})
	f.Add(1, []float32{0.9, 0.1, 0, 0})
	f.Add(2, []float32{0, 1, 0, 0})
	probe := []float32{1, 0, 0, 0}
	hits := f.Search(probe, 2, -1)
	if len(hits) != 2 || hits[0].ID != 0 || hits[1].ID != 1 {
		t.Fatalf("Search ordering = %v", hits)
	}
}

// trainedIVF builds an IVF trained on the first n of rows (all of them
// when there are fewer), the rows a test then adds in order.
func trainedIVF(dim int, cfg IVFConfig, rows [][]float32, n int) *IVF {
	return NewIVF(dim, cfg, rows[:min(n, len(rows))])
}

// IVF recall vs the exact Flat result on clustered data.
func TestIVFRecallAgainstFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dim := 32
	vecs := clustered(rng, 1000, 16, dim, 0.2)
	flat := NewFlat(dim)
	ivf := trainedIVF(dim, IVFConfig{NList: 16, NProbe: 4, Seed: 6}, vecs, 200)
	for i, v := range vecs {
		flat.Add(i, v)
		ivf.Add(i, v)
	}
	agree := 0
	total := 100
	for q := 0; q < total; q++ {
		probe := unit(rng, dim)
		// Blend toward a stored vector so there is a meaningful neighbour.
		vecmath.Axpy(2, vecs[q*7%len(vecs)], probe)
		vecmath.Normalize(probe)
		exact := flat.Search(probe, 1, -1)
		approx := ivf.Search(probe, 1, -1)
		if len(exact) == 1 && len(approx) == 1 && exact[0].ID == approx[0].ID {
			agree++
		}
	}
	if agree < 85 {
		t.Fatalf("IVF top-1 recall = %d/%d, want >= 85", agree, total)
	}
}

// TestIVFNProbeEqualsNListIsExact: probing every list makes IVF an exact
// scan, so it returns Flat's IDs, order and score bits.
func TestIVFNProbeEqualsNListIsExact(t *testing.T) {
	for _, dim := range []int{16, 768} {
		rng := rand.New(rand.NewSource(7))
		vecs := clustered(rng, 300, 6, dim, 1.2/math.Sqrt(float64(dim))) // 0.3 at d = 16
		flat := NewFlat(dim)
		ivf := trainedIVF(dim, IVFConfig{NList: 10, NProbe: 10, Seed: 8}, vecs, 50)
		for i, v := range vecs {
			flat.Add(i, v)
			ivf.Add(i, v)
		}
		for q := 0; q < 50; q++ {
			probe := unit(rng, dim)
			if q%2 == 1 {
				probe = vecs[rng.Intn(len(vecs))]
			}
			what := fmt.Sprintf("d=%d probe %d", dim, q)
			sameHits(t, what, ivf.Search(probe, 5, 0.3), flat.Search(probe, 5, 0.3))
		}
	}
}

func TestIVFRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vecs := clustered(rng, 100, 4, 16, 0.2)
	x := trainedIVF(16, IVFConfig{NList: 4, NProbe: 4, Seed: 10}, vecs, 20)
	for i, v := range vecs {
		x.Add(i, v)
	}
	x.Remove(42)
	x.Remove(42) // double-remove: no-op
	if x.Len() != 99 {
		t.Fatalf("Len = %d, want 99", x.Len())
	}
	if hits := x.Search(vecs[42], 1, 0.999); len(hits) == 1 && hits[0].ID == 42 {
		t.Fatal("removed vector still indexed")
	}
	// All other vectors survive.
	for i := 0; i < 100; i++ {
		if i == 42 {
			continue
		}
		hits := x.Search(vecs[i], 1, 0.999)
		if len(hits) != 1 || hits[0].ID != i {
			t.Fatalf("vector %d lost after Remove(42)", i)
		}
	}
}

func TestIVFDuplicateID(t *testing.T) {
	v := []float32{1, 0, 0, 0}
	x := NewIVF(4, IVFConfig{NList: 2, NProbe: 2, Seed: 1}, [][]float32{v, {0, 1, 0, 0}})
	if err := x.Add(1, v); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(1, v); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestIVFEmptySearch(t *testing.T) {
	x := NewIVF(8, IVFConfig{}, [][]float32{unit(rand.New(rand.NewSource(1)), 8)})
	if hits := x.Search(make([]float32, 8), 5, 0); len(hits) != 0 {
		t.Fatalf("empty index returned %v", hits)
	}
}

// benchmarkSearch fills an index built from the corpus by build (for an
// IVF, its training sample) with n clustered rows and times one search.
func benchmarkSearch(b *testing.B, build func(rows [][]float32) Index, dim, n int) {
	rng := rand.New(rand.NewSource(11))
	vecs := clustered(rng, n, 32, dim, 0.2)
	idx := build(vecs)
	for i, v := range vecs {
		if err := idx.Add(i, v); err != nil {
			b.Fatal(err)
		}
	}
	probe := unit(rng, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(probe, 5, 0.5)
	}
}

func flatOn(rows [][]float32) Index { return NewFlat(len(rows[0])) }

// ivfOn returns a builder of an IVF trained on the first 32 rows per
// list.
func ivfOn(cfg IVFConfig) func(rows [][]float32) Index {
	return func(rows [][]float32) Index {
		return trainedIVF(len(rows[0]), cfg, rows, 32*cfg.NList)
	}
}

func BenchmarkFlat768x10k(b *testing.B) { benchmarkSearch(b, flatOn, 768, 10000) }
func BenchmarkIVF768x10k(b *testing.B) {
	benchmarkSearch(b, ivfOn(IVFConfig{NList: 100, NProbe: 8, Seed: 1}), 768, 10000)
}

// nearProbes draws count probes, each a perturbed copy of a random row
// of rows: the shape of a query that should hit.
func nearProbes(rng *rand.Rand, rows [][]float32, count int) [][]float32 {
	d := len(rows[0])
	probes := make([][]float32, count)
	for i := range probes {
		p := vecmath.Clone(rows[rng.Intn(len(rows))])
		for j := range p {
			p[j] += float32(rng.NormFloat64() * 0.3 / math.Sqrt(float64(d)))
		}
		vecmath.Normalize(p)
		probes[i] = p
	}
	return probes
}

// BenchmarkFlatSearch768 times one search of a 768-d Flat at the sizes
// the exact tier serves: 32 rows (a small_tenants tenant), 128, and
// 1,024 (DefaultFlatMax). Rows are loosely
// clustered as sentence embeddings are, probes sit near stored rows and
// tau is a serving threshold: a tenant's hit path.
func BenchmarkFlatSearch768(b *testing.B) {
	const dim = 768
	for _, n := range []int{32, 128, 1024} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			rows := clustered(rng, n, 16, dim, 1.2/math.Sqrt(dim))
			f := NewFlat(dim)
			for i, v := range rows {
				if err := f.Add(i, v); err != nil {
					b.Fatal(err)
				}
			}
			probes := nearProbes(rng, rows, 64)
			dst := make([]Hit, 0, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = f.SearchAppend(probes[i%len(probes)], 5, 0.69, dst[:0])
			}
		})
	}
}

// BenchmarkFlatAdd768 times filling a fresh 768-d Flat with 64 rows, as
// a tenant revived from its snapshot is refilled.
func BenchmarkFlatAdd768(b *testing.B) {
	const dim, n = 768, 64
	rng := rand.New(rand.NewSource(12))
	rows := clustered(rng, n, 16, dim, 1.2/math.Sqrt(dim))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewFlat(dim)
		for id, v := range rows {
			if err := f.Add(id, v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFlat768x50k(b *testing.B) { benchmarkSearch(b, flatOn, 768, 50000) }
func BenchmarkIVF768x50k(b *testing.B) {
	benchmarkSearch(b, ivfOn(IVFConfig{NList: 224, NProbe: 12, Seed: 1}), 768, 50000)
}

func ExampleIVF() {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float32, 32)
	for i := range rows {
		rows[i] = unit(rng, 8)
	}
	idx := NewIVF(8, IVFConfig{NList: 4, NProbe: 2, Seed: 1}, rows[:16])
	for i, v := range rows {
		idx.Add(i, v)
	}
	fmt.Println("lists:", len(idx.lists), "stored:", idx.Len())
	// Output: lists: 4 stored: 32
}
