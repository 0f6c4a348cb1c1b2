package index

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/raceflag"
)

// Allocation-regression gates for the query hot path: the pooled
// search surfaces must not allocate once warmed. AllocsPerRun tolerates
// sub-1 averages so a GC clearing a sync.Pool mid-run cannot flake the
// suite, while any real per-call allocation (≥1) still fails.

func buildAllocFlat(t testing.TB, n int) (*Flat, [][]float32) {
	rng := rand.New(rand.NewSource(9))
	vecs := dataset.ClusteredVectors(rng, n, 16, 32, 0.4)
	f := NewFlat(32)
	for i, v := range vecs {
		if err := f.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	return f, vecs
}

func TestFlatSearchAppendZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("pooled buffers are intentionally dropped under -race")
	}
	f, vecs := buildAllocFlat(t, 2000)
	probe := vecs[3]
	dst := make([]Hit, 0, 16)
	// Warm the scratch pool.
	dst = f.SearchAppend(probe, 5, 0.8, dst[:0])
	if len(dst) == 0 {
		t.Fatal("warmup search found nothing")
	}
	if n := testing.AllocsPerRun(100, func() {
		dst = f.SearchAppend(probe, 5, 0.8, dst[:0])
	}); n >= 1 {
		t.Fatalf("Flat.SearchAppend allocates %v per warmed call, want 0", n)
	}
	// The permissive-tau full-scan fallback must stay allocation-free
	// too (pooled score and hit buffers absorb the whole candidate set).
	big := make([]Hit, 0, 2048)
	big = f.SearchAppend(probe, 10, -1, big[:0])
	if n := testing.AllocsPerRun(20, func() {
		big = f.SearchAppend(probe, 10, -1, big[:0])
	}); n >= 1 {
		t.Fatalf("Flat.SearchAppend (tau=-1) allocates %v per warmed call, want 0", n)
	}
}

// TestAdaptiveFlatTierSearchAppendZeroAlloc: the tiering wrapper hands
// SearchAppend through to its serving tier, so a tenant still on Flat
// searches as allocation-free behind Adaptive as on a bare Flat.
func TestAdaptiveFlatTierSearchAppendZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("pooled buffers are intentionally dropped under -race")
	}
	_, vecs := buildAllocFlat(t, 2000) // the corpus TestFlatSearchAppendZeroAlloc searches
	// A threshold above the corpus size: Flat serves throughout, whatever
	// DefaultFlatMax is.
	a := NewAdaptive(32, AdaptiveConfig{FlatMax: 4096})
	for i, v := range vecs {
		if err := a.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	if a.Tier() != "flat" {
		t.Fatalf("serving tier %q at %d entries, want flat", a.Tier(), len(vecs))
	}
	probe := vecs[3]
	dst := make([]Hit, 0, 16)
	dst = a.SearchAppend(probe, 5, 0.8, dst[:0])
	if len(dst) == 0 {
		t.Fatal("warmup search found nothing")
	}
	if n := testing.AllocsPerRun(100, func() {
		dst = a.SearchAppend(probe, 5, 0.8, dst[:0])
	}); n >= 1 {
		t.Fatalf("Adaptive.SearchAppend on the flat tier allocates %v per warmed call, want 0", n)
	}
}

func TestIVFSearchAppendZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("pooled buffers are intentionally dropped under -race")
	}
	rng := rand.New(rand.NewSource(10))
	vecs := dataset.ClusteredVectors(rng, 3000, 16, 32, 0.4)
	x := trainedIVF(32, IVFConfig{NList: 16, NProbe: 4, Seed: 3}, vecs, 500)
	for i, v := range vecs {
		if err := x.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	probe := vecs[7]
	dst := make([]Hit, 0, 16)
	dst = x.SearchAppend(probe, 5, 0.8, dst[:0])
	if len(dst) == 0 {
		t.Fatal("warmup search found nothing")
	}
	if n := testing.AllocsPerRun(100, func() {
		dst = x.SearchAppend(probe, 5, 0.8, dst[:0])
	}); n >= 1 {
		t.Fatalf("IVF.SearchAppend allocates %v per warmed call, want 0", n)
	}
}

func TestTopKSelectionZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hits := make([]Hit, 4096)
	scratch := make([]Hit, len(hits))
	for i := range hits {
		hits[i] = Hit{ID: i, Score: float32(rng.Float64())}
	}
	if n := testing.AllocsPerRun(50, func() {
		copy(scratch, hits)
		topKHits(scratch, 64)
	}); n >= 1 {
		t.Fatalf("topKHits allocates %v per run, want 0 (in-place heap selection)", n)
	}
}

// TestFlatSmallTenantBytes pins what activating a serving tenant costs in
// memory: a 768-d Flat holding 32 rows (the benchmark's tenant) must
// allocate well under twice its 96 KB of vectors (append's 1.25× steps
// over one arena would allocate over 400 KB).
func TestFlatSmallTenantBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vecs := dataset.ClusteredVectors(rng, 32, 20, 768, 0.4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := NewFlat(768)
	for i, v := range vecs {
		if err := f.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("32-row 768-d Flat: %d KB allocated, %d KB of vectors", got>>10, 32*768*4>>10)
	if got >= 160<<10 {
		t.Fatalf("allocated %d KB, want < 160 KB", got>>10)
	}
}
