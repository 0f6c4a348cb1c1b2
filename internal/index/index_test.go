package index

import (
	"fmt"
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

func TestIVFExactBeforeTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := NewIVF(16, IVFConfig{NList: 4, NProbe: 1, TrainSize: 1000})
	vecs := clustered(rng, 50, 5, 16, 0.1)
	for i, v := range vecs {
		if err := x.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	if x.Trained() {
		t.Fatal("index trained before threshold")
	}
	hits := x.Search(vecs[3], 1, 0.99)
	if len(hits) != 1 || hits[0].ID != 3 {
		t.Fatalf("bootstrap search = %v", hits)
	}
}

func TestIVFAutoTrainAndSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := NewIVF(32, IVFConfig{NList: 8, NProbe: 3, TrainSize: 100, Seed: 5})
	vecs := clustered(rng, 400, 8, 32, 0.15)
	for i, v := range vecs {
		if err := x.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	if !x.Trained() {
		t.Fatal("index did not auto-train")
	}
	if x.Len() != 400 {
		t.Fatalf("Len = %d, want 400", x.Len())
	}
	// Self-search must find the vector (it lives in the nearest list).
	found := 0
	for i := 0; i < 100; i++ {
		hits := x.Search(vecs[i], 1, 0.99)
		if len(hits) == 1 && hits[0].ID == i {
			found++
		}
	}
	if found < 95 {
		t.Fatalf("self-recall = %d/100, want >= 95", found)
	}
}

// IVF recall vs the exact Flat result on clustered data.
func TestIVFRecallAgainstFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dim := 32
	vecs := clustered(rng, 1000, 16, dim, 0.2)
	flat := NewFlat(dim)
	ivf := NewIVF(dim, IVFConfig{NList: 16, NProbe: 4, TrainSize: 200, Seed: 6})
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

func TestIVFNProbeEqualsNListIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dim := 16
	vecs := clustered(rng, 300, 6, dim, 0.3)
	flat := NewFlat(dim)
	ivf := NewIVF(dim, IVFConfig{NList: 10, NProbe: 10, TrainSize: 50, Seed: 8})
	for i, v := range vecs {
		flat.Add(i, v)
		ivf.Add(i, v)
	}
	for q := 0; q < 50; q++ {
		probe := unit(rng, dim)
		exact := flat.Search(probe, 5, 0.3)
		approx := ivf.Search(probe, 5, 0.3)
		if len(exact) != len(approx) {
			t.Fatalf("probe %d: exact %d hits, full-probe IVF %d", q, len(exact), len(approx))
		}
		for i := range exact {
			if exact[i].ID != approx[i].ID {
				t.Fatalf("probe %d: hit %d differs: %v vs %v", q, i, exact[i], approx[i])
			}
		}
	}
}

func TestIVFRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := NewIVF(16, IVFConfig{NList: 4, NProbe: 4, TrainSize: 20, Seed: 10})
	vecs := clustered(rng, 100, 4, 16, 0.2)
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
	x := NewIVF(4, IVFConfig{NList: 2, NProbe: 2, TrainSize: 2, Seed: 1})
	v := []float32{1, 0, 0, 0}
	x.Add(1, v)
	x.Add(2, []float32{0, 1, 0, 0}) // triggers training at size 2
	if !x.Trained() {
		t.Fatal("expected training at threshold")
	}
	if err := x.Add(1, v); err == nil {
		t.Fatal("duplicate id accepted after training")
	}
}

func TestIVFEmptySearch(t *testing.T) {
	x := NewIVF(8, IVFConfig{})
	if hits := x.Search(make([]float32, 8), 5, 0); len(hits) != 0 {
		t.Fatalf("empty index returned %v", hits)
	}
}

func benchmarkSearch(b *testing.B, idx Index, dim, n int) {
	rng := rand.New(rand.NewSource(11))
	vecs := clustered(rng, n, 32, dim, 0.2)
	for i, v := range vecs {
		if err := idx.Add(i, v); err != nil {
			b.Fatal(err)
		}
	}
	if ivf, ok := idx.(*IVF); ok && !ivf.Trained() {
		ivf.Train()
	}
	probe := unit(rng, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(probe, 5, 0.5)
	}
}

func BenchmarkFlat768x10k(b *testing.B) { benchmarkSearch(b, NewFlat(768), 768, 10000) }
func BenchmarkIVF768x10k(b *testing.B) {
	benchmarkSearch(b, NewIVF(768, IVFConfig{NList: 100, NProbe: 8, Seed: 1}), 768, 10000)
}

func BenchmarkFlat768x50k(b *testing.B) { benchmarkSearch(b, NewFlat(768), 768, 50000) }
func BenchmarkIVF768x50k(b *testing.B) {
	benchmarkSearch(b, NewIVF(768, IVFConfig{NList: 224, NProbe: 12, Seed: 1}), 768, 50000)
}

func BenchmarkHNSW768x10k(b *testing.B) {
	benchmarkSearch(b, NewHNSW(768, HNSWConfig{M: 16, EfConstruction: 64, EfSearch: 96, Seed: 1}), 768, 10000)
}

func ExampleIVF() {
	rng := rand.New(rand.NewSource(1))
	idx := NewIVF(8, IVFConfig{NList: 4, NProbe: 2, TrainSize: 16, Seed: 1})
	for i := 0; i < 32; i++ {
		idx.Add(i, unit(rng, 8))
	}
	fmt.Println("trained:", idx.Trained(), "stored:", idx.Len())
	// Output: trained: true stored: 32
}
