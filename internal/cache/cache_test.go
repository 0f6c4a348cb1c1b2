package cache

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/vecmath"
)

// unit returns a deterministic unit vector of dimension d seeded by s.
func unit(d int, s int64) []float32 {
	rng := rand.New(rand.NewSource(s))
	v := make([]float32, d)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	vecmath.Normalize(v)
	return v
}

func TestPutGetChain(t *testing.T) {
	c := New(8, 0, LRU{})
	id1, err := c.Put("what is FL", "FL is...", unit(8, 1), NoParent)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	id2, err := c.Put("plot a graph", "use plot()", unit(8, 2), NoParent)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	id3, err := c.Put("change color to blue", "set color=", unit(8, 3), id2)
	if err != nil {
		t.Fatalf("Put child: %v", err)
	}
	if e, ok := c.Get(id3); !ok || e.Parent != id2 {
		t.Fatal("child entry lost or wrong parent")
	}
	chain := c.Chain(id3)
	if len(chain) != 1 || chain[0].ID != id2 {
		t.Fatalf("Chain(id3) = %v, want [id2]", chain)
	}
	if got := c.Chain(id1); len(got) != 0 {
		t.Fatalf("standalone chain = %v, want empty", got)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestPutRejectsWrongDim(t *testing.T) {
	c := New(8, 0, LRU{})
	if _, err := c.Put("q", "r", make([]float32, 9), NoParent); err == nil {
		t.Fatal("Put accepted wrong-dimension embedding")
	}
}

func TestPutRejectsMissingParent(t *testing.T) {
	c := New(8, 0, LRU{})
	if _, err := c.Put("q", "r", unit(8, 1), 42); err == nil {
		t.Fatal("Put accepted dangling parent")
	}
}

func TestFindSimilarExactMatch(t *testing.T) {
	c := New(8, 0, LRU{})
	e := unit(8, 5)
	id, _ := c.Put("query", "resp", e, NoParent)
	ms := c.FindSimilar(e, 3, 0.9)
	if len(ms) != 1 || ms[0].Entry.ID != id {
		t.Fatalf("FindSimilar(self) = %v", ms)
	}
	if ms[0].Score < 0.999 {
		t.Fatalf("self-similarity = %v, want ≈1", ms[0].Score)
	}
}

func TestFindSimilarThreshold(t *testing.T) {
	c := New(8, 0, LRU{})
	for i := int64(0); i < 50; i++ {
		c.Put(fmt.Sprintf("q%d", i), "r", unit(8, i), NoParent)
	}
	probe := unit(8, 3) // identical to entry seeded 3
	ms := c.FindSimilar(probe, 10, 0.99)
	if len(ms) != 1 {
		t.Fatalf("matches above 0.99 = %d, want exactly the identical entry", len(ms))
	}
	// Lower threshold yields more (random unit vectors spread widely).
	loose := c.FindSimilar(probe, 50, -1)
	if len(loose) != 50 {
		t.Fatalf("matches above -1 = %d, want 50", len(loose))
	}
	// Results sorted descending.
	for i := 1; i < len(loose); i++ {
		if loose[i].Score > loose[i-1].Score {
			t.Fatal("matches not sorted by score")
		}
	}
}

func TestFindSimilarTopK(t *testing.T) {
	c := New(8, 0, LRU{})
	for i := int64(0); i < 30; i++ {
		c.Put("q", "r", unit(8, i), NoParent)
	}
	ms := c.FindSimilar(unit(8, 99), 5, -1)
	if len(ms) != 5 {
		t.Fatalf("top-k = %d, want 5", len(ms))
	}
}

func TestFindSimilarEmptyCache(t *testing.T) {
	c := New(8, 0, LRU{})
	if ms := c.FindSimilar(unit(8, 1), 5, 0); ms != nil {
		t.Fatalf("empty cache returned %v", ms)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(4, 3, LRU{})
	id0, _ := c.Put("a", "r", unit(4, 0), NoParent)
	id1, _ := c.Put("b", "r", unit(4, 1), NoParent)
	id2, _ := c.Put("c", "r", unit(4, 2), NoParent)
	c.Touch(id0) // id0 is now most recently used; id1 is LRU
	c.Put("d", "r", unit(4, 3), NoParent)
	if _, ok := c.Get(id1); ok {
		t.Fatal("LRU victim id1 survived")
	}
	for _, id := range []int{id0, id2} {
		if _, ok := c.Get(id); !ok {
			t.Fatalf("entry %d wrongly evicted", id)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", c.Len())
	}
}

func TestLFUEviction(t *testing.T) {
	c := New(4, 3, LFU{})
	id0, _ := c.Put("a", "r", unit(4, 0), NoParent)
	id1, _ := c.Put("b", "r", unit(4, 1), NoParent)
	c.Put("c", "r", unit(4, 2), NoParent)
	c.Touch(id0)
	c.Touch(id0)
	c.Touch(id1)
	// id2 has zero hits: LFU victim.
	c.Put("d", "r", unit(4, 3), NoParent)
	if _, ok := c.Get(id0); !ok {
		t.Fatal("most-hit entry evicted under LFU")
	}
}

// TestTouchDoesNotExcludeSearches: a hit's Touch goes through while a
// search holds the cache (as a writer it would wait for the search, and
// stall every search that arrives meanwhile), and concurrent touches all
// count.
func TestTouchDoesNotExcludeSearches(t *testing.T) {
	c := New(4, 2, LFU{})
	id0, _ := c.Put("a", "r", unit(4, 0), NoParent)
	id1, _ := c.Put("b", "r", unit(4, 1), NoParent)
	c.mu.RLock() // a search in flight
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); c.Touch(id0) }()
		}
		wg.Wait()
		c.Touch(id1)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Touch is waiting for a search in flight to finish")
	}
	c.mu.RUnlock()
	if e, _ := c.Get(id0); e.hits != 8 {
		t.Errorf("8 concurrent touches counted %d hits", e.hits)
	}
	// id1 has the fewest hits: LFU's victim, although touched last.
	c.Put("c", "r", unit(4, 2), NoParent)
	if _, ok := c.Get(id1); ok {
		t.Error("LFU kept the least-hit entry")
	}
}

func TestFIFOEviction(t *testing.T) {
	c := New(4, 2, FIFO{})
	id0, _ := c.Put("a", "r", unit(4, 0), NoParent)
	c.Put("b", "r", unit(4, 1), NoParent)
	c.Touch(id0) // recency must not matter for FIFO
	c.Put("c", "r", unit(4, 2), NoParent)
	if _, ok := c.Get(id0); ok {
		t.Fatal("FIFO kept the oldest entry")
	}
}

func TestNonePolicyGrowsPastCapacity(t *testing.T) {
	c := New(4, 2, None{})
	for i := int64(0); i < 5; i++ {
		if _, err := c.Put("q", "r", unit(4, i), NoParent); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d, want 5 (None policy must not evict)", c.Len())
	}
}

func TestEvictionCascadesToChildren(t *testing.T) {
	c := New(4, 0, LRU{})
	parent, _ := c.Put("parent", "r", unit(4, 0), NoParent)
	child, _ := c.Put("child", "r", unit(4, 1), parent)
	grandchild, _ := c.Put("grandchild", "r", unit(4, 2), child)
	other, _ := c.Put("other", "r", unit(4, 3), NoParent)
	c.Remove(parent)
	for _, id := range []int{parent, child, grandchild} {
		if _, ok := c.Get(id); ok {
			t.Fatalf("entry %d survived cascade removal", id)
		}
	}
	if _, ok := c.Get(other); !ok {
		t.Fatal("unrelated entry removed")
	}
}

func TestEvictionNeverOrphansChains(t *testing.T) {
	// Fill a capacity-bounded cache with parent→child conversations and
	// verify every surviving child's chain resolves.
	c := New(4, 10, LRU{})
	for i := int64(0); i < 40; i++ {
		pid, err := c.Put("p", "r", unit(4, i*2), NoParent)
		if err != nil {
			t.Fatalf("Put parent: %v", err)
		}
		if _, err := c.Put("c", "r", unit(4, i*2+1), pid); err != nil {
			t.Fatalf("Put child: %v", err)
		}
	}
	for _, e := range c.Entries() {
		if e.Parent != NoParent {
			if _, ok := c.Get(e.Parent); !ok {
				t.Fatalf("entry %d has dangling parent %d", e.ID, e.Parent)
			}
		}
	}
}

func TestStorageAccounting(t *testing.T) {
	c := New(4, 0, LRU{})
	c.Put("query", "response", unit(4, 1), NoParent)
	if got := c.EmbeddingBytes(); got != 16 {
		t.Fatalf("EmbeddingBytes = %d, want 16", got)
	}
	want := int64(16 + len("query") + len("response"))
	if got := c.StorageBytes(); got != want {
		t.Fatalf("StorageBytes = %d, want %d", got, want)
	}
}

func TestStatsCounters(t *testing.T) {
	c := New(4, 0, LRU{})
	e := unit(4, 1)
	c.Put("q", "r", e, NoParent)
	c.FindSimilar(e, 1, 0.9)        // hit
	c.FindSimilar(unit(4, 9), 1, 2) // impossible threshold: miss
	s := c.Stats()
	if s.Puts != 1 || s.Searches != 2 || s.Hits != 1 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestConcurrentPutAndSearch(t *testing.T) {
	c := New(16, 0, LRU{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Put("q", "r", unit(16, int64(w*1000+i)), NoParent)
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.FindSimilar(unit(16, int64(w)), 3, 0.5)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != 400 {
		t.Fatalf("Len = %d, want 400", c.Len())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "cache.log"))
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()

	c := New(8, 0, LRU{})
	p, _ := c.Put("parent q", "parent r", unit(8, 1), NoParent)
	ch, _ := c.Put("child q", "child r", unit(8, 2), p)
	c.Put("standalone", "r", unit(8, 3), NoParent)
	if err := c.SaveTo(st); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}

	c2, err := LoadFrom(st, 8, 0, LRU{})
	if err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if c2.Len() != 3 {
		t.Fatalf("loaded Len = %d, want 3", c2.Len())
	}
	e, ok := c2.Get(ch)
	if !ok || e.Parent != p || e.Query != "child q" {
		t.Fatalf("child entry corrupted: %+v", e)
	}
	chain := c2.Chain(ch)
	if len(chain) != 1 || chain[0].Query != "parent q" {
		t.Fatal("chain broken after reload")
	}
	// New entries must not collide with loaded IDs.
	nid, err := c2.Put("new", "r", unit(8, 4), NoParent)
	if err != nil {
		t.Fatalf("Put after load: %v", err)
	}
	if _, ok := c2.Get(nid); !ok || nid <= ch {
		t.Fatalf("ID allocation after load broken: new ID %d", nid)
	}
}

func TestSaveToPrunesStaleRecords(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "cache.log"))
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	c := New(8, 0, LRU{})
	id, _ := c.Put("temp", "r", unit(8, 1), NoParent)
	c.SaveTo(st)
	c.Remove(id)
	c.Put("kept", "r", unit(8, 2), NoParent)
	c.SaveTo(st)
	c2, err := LoadFrom(st, 8, 0, LRU{})
	if err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if c2.Len() != 1 {
		t.Fatalf("loaded Len = %d, want 1 (stale record must be pruned)", c2.Len())
	}
}

func BenchmarkFindSimilar768x1000(b *testing.B) {
	benchmarkFindSimilar(b, 768, 1000)
}

func BenchmarkFindSimilar64x1000(b *testing.B) {
	benchmarkFindSimilar(b, 64, 1000)
}

func BenchmarkFindSimilar768x3000(b *testing.B) {
	benchmarkFindSimilar(b, 768, 3000)
}

func BenchmarkFindSimilar64x3000(b *testing.B) {
	benchmarkFindSimilar(b, 64, 3000)
}

func benchmarkFindSimilar(b *testing.B, dim, n int) {
	c := New(dim, 0, LRU{})
	for i := int64(0); i < int64(n); i++ {
		c.Put("q", "r", unit(dim, i), NoParent)
	}
	probe := unit(dim, 777)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.FindSimilar(probe, 5, 0.7)
	}
}
