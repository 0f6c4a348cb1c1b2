package cache

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/raceflag"
	"repro/internal/store"
)

func TestIndexedCacheMatchesFlatCache(t *testing.T) {
	// A cache backed by a full-probe IVF (exact) must make the same
	// decisions as the built-in scan.
	flat := New(16, 0, LRU{})
	ivf := NewWithIndex(16, 0, LRU{}, index.NewIVF(16, index.IVFConfig{
		NList: 8, NProbe: 8, TrainSize: 30, Seed: 1,
	}))
	if ivf.ServingTier() != "ivf" || flat.ServingTier() != "flat" {
		t.Fatalf("ServingTier() = %q / %q, want ivf / flat", ivf.ServingTier(), flat.ServingTier())
	}
	for i := int64(0); i < 120; i++ {
		e := unit(16, i)
		if _, err := flat.Put(fmt.Sprintf("q%d", i), "r", e, NoParent); err != nil {
			t.Fatal(err)
		}
		if _, err := ivf.Put(fmt.Sprintf("q%d", i), "r", e, NoParent); err != nil {
			t.Fatal(err)
		}
	}
	for probe := int64(200); probe < 250; probe++ {
		p := unit(16, probe)
		a := flat.FindSimilar(p, 3, 0.2)
		b := ivf.FindSimilar(p, 3, 0.2)
		if len(a) != len(b) {
			t.Fatalf("probe %d: %d vs %d hits", probe, len(a), len(b))
		}
		for i := range a {
			if a[i].Entry.ID != b[i].Entry.ID {
				t.Fatalf("probe %d hit %d: %d vs %d", probe, i, a[i].Entry.ID, b[i].Entry.ID)
			}
		}
	}
}

func TestIndexedCacheEviction(t *testing.T) {
	c := NewWithIndex(8, 5, LRU{}, index.NewFlat(8))
	ids := make([]int, 0, 10)
	for i := int64(0); i < 10; i++ {
		id, err := c.Put("q", "r", unit(8, i), NoParent)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d, want 5", c.Len())
	}
	// Evicted entries must be gone from the index too: searching for an
	// evicted embedding must not return it.
	for i := 0; i < 5; i++ {
		ms := c.FindSimilar(unit(8, int64(i)), 1, 0.999)
		for _, m := range ms {
			if m.Entry.ID == ids[i] {
				t.Fatalf("evicted entry %d still searchable", ids[i])
			}
		}
	}
	// Live entries remain searchable.
	for i := 5; i < 10; i++ {
		ms := c.FindSimilar(unit(8, int64(i)), 1, 0.999)
		if len(ms) != 1 || ms[0].Entry.ID != ids[i] {
			t.Fatalf("live entry %d not found", ids[i])
		}
	}
}

func TestNewWithIndexValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch accepted")
		}
	}()
	NewWithIndex(8, 0, LRU{}, index.NewFlat(9))
}

// TestIndexedCacheConcurrent hammers an IVF-backed, capacity-bounded cache
// with concurrent Put (driving eviction), FindSimilar and Remove — the
// serving-path mix the flat scan sees in production, now exercised through
// the external index so the cache-lock/index-consistency contract is
// covered under the race detector.
func TestIndexedCacheConcurrent(t *testing.T) {
	const (
		dim      = 16
		capacity = 64
		writers  = 4
		readers  = 4
		perG     = 300
	)
	c := NewWithIndex(dim, capacity, LRU{}, index.NewIVF(dim, index.IVFConfig{
		NList: 8, NProbe: 4, TrainSize: 40, Seed: 1,
	}))

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s := int64(w*perG + i)
				id, err := c.Put(fmt.Sprintf("w%d-q%d", w, i), "r", unit(dim, s), NoParent)
				if err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if i%7 == 0 {
					c.Remove(id)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ms := c.FindSimilar(unit(dim, int64(r*perG+i)), 3, 0.1)
				for _, m := range ms {
					if m.Entry == nil || len(m.Entry.Embedding) != dim {
						t.Error("FindSimilar returned a malformed match")
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	if c.Len() > capacity {
		t.Fatalf("Len = %d, exceeds capacity %d", c.Len(), capacity)
	}
	// Cache and index must agree on the live set: every live entry is
	// findable by its own embedding at a near-exact threshold.
	for _, e := range c.Entries() {
		ms := c.FindSimilar(e.Embedding, 1, 0.999)
		if len(ms) == 0 {
			t.Fatalf("live entry %d missing from index", e.ID)
		}
	}
}

// TestAdaptiveIndexedCacheConcurrent runs the same serving mix over an
// adaptive index with a threshold low enough that the promotion and a
// regrowth (Flat→IVF→regrown IVF: ~1,070 live entries is more than 4 ×
// the 101 the first IVF is built from) happen mid-traffic, with
// background builds racing live Put/FindSimilar/Remove.
func TestAdaptiveIndexedCacheConcurrent(t *testing.T) {
	const (
		dim     = 16
		writers = 4
		readers = 4
		perG    = 300
	)
	adaptive := index.NewAdaptive(dim, index.AdaptiveConfig{FlatMax: 100})
	c := NewWithIndex(dim, 0, LRU{}, adaptive)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s := int64(w*perG + i)
				id, err := c.Put(fmt.Sprintf("w%d-q%d", w, i), "r", unit(dim, s), NoParent)
				if err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if i%9 == 0 {
					c.Remove(id)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for _, m := range c.FindSimilar(unit(dim, int64(r*perG+i)), 3, 0.1) {
					if m.Entry == nil || len(m.Entry.Embedding) != dim {
						t.Error("FindSimilar returned a malformed match")
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	adaptive.WaitMigration()

	if got := adaptive.Tier(); got != "ivf" {
		t.Fatalf("tier = %s after %d puts, want ivf", got, writers*perG)
	}
	if c.Len() != adaptive.Len() {
		t.Fatalf("cache Len %d != index Len %d", c.Len(), adaptive.Len())
	}
	for _, e := range c.Entries() {
		if ms := c.FindSimilar(e.Embedding, 1, 0.999); len(ms) == 0 {
			t.Fatalf("live entry %d missing from promoted index", e.ID)
		}
	}
}

// TestAdaptiveFindSimilarAppendZeroAlloc: a cache on the adaptive index
// every tenant gets reaches it through SearchAppend, the pooled branch of
// FindSimilarAppend, not through the allocating Search.
func TestAdaptiveFindSimilarAppendZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("pooled buffers are intentionally dropped under -race")
	}
	c := NewWithIndex(16, 0, LRU{}, index.NewAdaptive(16, index.AdaptiveConfig{}))
	for i := int64(0); i < 200; i++ {
		if _, err := c.Put(fmt.Sprintf("q%d", i), "r", unit(16, i), NoParent); err != nil {
			t.Fatal(err)
		}
	}
	probe := unit(16, 7)
	dst := make([]Match, 0, 8)
	if dst = c.FindSimilarAppend(probe, 5, 0.8, dst[:0]); len(dst) == 0 {
		t.Fatal("warmup search found nothing")
	}
	if n := testing.AllocsPerRun(100, func() {
		dst = c.FindSimilarAppend(probe, 5, 0.8, dst[:0])
	}); n >= 1 {
		t.Fatalf("FindSimilarAppend over an Adaptive index allocates %v per warmed call, want 0", n)
	}
}

// TestLoadFromWithIndex covers the indexed-tenant revival path: a saved
// cache reloaded onto a fresh index must have every entry searchable
// through it.
func TestLoadFromWithIndex(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "cache.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := New(8, 0, LRU{})
	ids := make([]int, 20)
	for i := int64(0); i < 20; i++ {
		id, err := c.Put(fmt.Sprintf("q%d", i), "r", unit(8, i), NoParent)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := c.SaveTo(st); err != nil {
		t.Fatal(err)
	}

	revived, err := LoadFromWithIndex(st, 8, 0, LRU{},
		index.NewIVF(8, index.IVFConfig{NList: 4, NProbe: 4, TrainSize: 10, Seed: 2}))
	if err != nil {
		t.Fatalf("LoadFromWithIndex: %v", err)
	}
	if revived.ServingTier() != "ivf" || revived.Len() != 20 {
		t.Fatalf("revived: ServingTier=%q Len=%d", revived.ServingTier(), revived.Len())
	}
	for i := int64(0); i < 20; i++ {
		ms := revived.FindSimilar(unit(8, i), 1, 0.999)
		if len(ms) != 1 || ms[0].Entry.ID != ids[i] {
			t.Fatalf("revived entry %d not searchable through the index", ids[i])
		}
	}

	// Error paths: wrong dimension, pre-populated index.
	if _, err := LoadFromWithIndex(st, 8, 0, LRU{}, index.NewFlat(9)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	used := index.NewFlat(8)
	used.Add(1, unit(8, 1))
	if _, err := LoadFromWithIndex(st, 8, 0, LRU{}, used); err == nil {
		t.Fatal("non-empty index accepted")
	}
}
