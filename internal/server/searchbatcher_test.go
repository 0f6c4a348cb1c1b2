package server

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/raceflag"
	"repro/internal/vecmath"
)

// TestSearchBatcherMatchesDirect pins the deprecated pass-through: its
// FindSimilar returns exactly FindSimilarAppend's matches, appended to
// dst, and allocates nothing.
func TestSearchBatcherMatchesDirect(t *testing.T) {
	const dim = 16
	rng := rand.New(rand.NewSource(23))
	c := cache.New(dim, 0, cache.LRU{})
	var probe []float32
	for i := 0; i < 50; i++ {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		vecmath.Normalize(v)
		if _, err := c.Put(fmt.Sprintf("q%d", i), fmt.Sprintf("r%d", i), v, cache.NoParent); err != nil {
			t.Fatal(err)
		}
		probe = v
	}
	sb := NewSearchBatcher(BatcherConfig{MaxBatch: 8})
	defer sb.Close()
	sentinel := cache.Match{Score: -42}
	got := sb.FindSimilar(c, probe, 5, 0.1, []cache.Match{sentinel})
	want := c.FindSimilarAppend(probe, 5, 0.1, []cache.Match{sentinel})
	if len(got) < 2 || len(got) != len(want) {
		t.Fatalf("got %d matches, want %d (sentinel first, then at least the probe's own entry)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("match[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st := sb.Stats(); st != (BatcherStats{}) {
		t.Errorf("Stats = %+v, want zero", st)
	}
	if raceflag.Enabled {
		return // allocation counts are not meaningful under -race
	}
	dst := make([]cache.Match, 0, 8)
	if n := testing.AllocsPerRun(100, func() { dst = sb.FindSimilar(c, probe, 5, 0.1, dst[:0]) }); n != 0 {
		t.Errorf("FindSimilar allocates %v times, want 0", n)
	}
}
