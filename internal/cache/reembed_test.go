package cache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/index"
	"repro/internal/vecmath"
)

// hashEmb derives a deterministic unit vector from text and a model
// generation, standing in for "the same query under a different encoder".
func hashEmb(dim int, gen int64, text string) []float32 {
	var h int64 = gen
	for _, r := range text {
		h = h*131 + int64(r)
	}
	return unit(dim, h)
}

func TestReembedMigratesAllEntries(t *testing.T) {
	for name, c := range map[string]*Cache{
		"flat":    New(16, 0, LRU{}),
		"indexed": NewWithIndex(16, 0, LRU{}, index.NewAdaptive(16, index.AdaptiveConfig{FlatMax: 20})),
	} {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				q := fmt.Sprintf("query %d", i)
				if _, err := c.Put(q, "r", hashEmb(16, 1, q), NoParent); err != nil {
					t.Fatal(err)
				}
			}
			n, err := c.Reembed(func(q string) []float32 { return hashEmb(16, 2, q) })
			if err != nil {
				t.Fatalf("Reembed: %v", err)
			}
			if n != 50 {
				t.Fatalf("reembedded %d entries, want 50", n)
			}
			// Every entry must now be searchable by its generation-2
			// embedding (and not by its generation-1 one).
			for _, e := range c.Entries() {
				ms := c.FindSimilar(hashEmb(16, 2, e.Query), 1, 0.999)
				if len(ms) == 0 || ms[0].Entry.ID != e.ID {
					t.Fatalf("entry %d not findable under the new model", e.ID)
				}
				if ms := c.FindSimilar(hashEmb(16, 1, e.Query), 1, 0.999); len(ms) != 0 {
					t.Fatalf("entry %d still matches its old embedding exactly", e.ID)
				}
			}
		})
	}
}

func TestReembedDimMismatch(t *testing.T) {
	c := New(8, 0, LRU{})
	if _, err := c.Put("q", "r", unit(8, 1), NoParent); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reembed(func(string) []float32 { return make([]float32, 9) }); err == nil {
		t.Fatal("Reembed accepted wrong-dimension embeddings")
	}
}

func TestReembedDuringConcurrentTraffic(t *testing.T) {
	c := New(16, 128, LRU{})
	for i := 0; i < 100; i++ {
		q := fmt.Sprintf("seed %d", i)
		if _, err := c.Put(q, "r", hashEmb(16, 1, q), NoParent); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent inserts + searches while the migration runs
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := fmt.Sprintf("live %d", i)
			c.Put(q, "r", hashEmb(16, 2, q), NoParent)
			c.FindSimilar(hashEmb(16, 2, q), 3, 0.5)
		}
	}()
	if _, err := c.Reembed(func(q string) []float32 { return hashEmb(16, 2, q) }); err != nil {
		t.Fatalf("Reembed under traffic: %v", err)
	}
	close(stop)
	wg.Wait()
	// All surviving entries are in the generation-2 space.
	for _, e := range c.Entries() {
		if vec, ok := c.Vector(e.ID, nil); !ok || vecmath.Dot(vec, hashEmb(16, 2, e.Query)) < 0.999 {
			t.Fatalf("entry %q left in the old embedding space", e.Query)
		}
	}
}

func TestReembedKeepsEntriesAndSwapsVectors(t *testing.T) {
	// Callers hold *Entry pointers beyond the cache lock (context chains,
	// in-flight matches): Reembed moves only the index's vector, so those
	// pointers stay the cache's live entries, and Cache.Vector reads the
	// new embedding through them.
	c := New(16, 0, LRU{})
	parent, err := c.Put("p", "r", hashEmb(16, 1, "p"), NoParent)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Put("q", "r", hashEmb(16, 1, "q"), parent)
	if err != nil {
		t.Fatal(err)
	}
	held, _ := c.Get(id)
	chain := c.Chain(id)
	if _, err := c.Reembed(func(q string) []float32 { return hashEmb(16, 2, q) }); err != nil {
		t.Fatal(err)
	}
	if cur, ok := c.Get(id); !ok || cur != held {
		t.Fatal("Reembed replaced an entry held by a caller")
	}
	if now := c.Chain(id); len(now) != 1 || len(chain) != 1 || now[0] != chain[0] {
		t.Fatalf("Reembed changed the chain: %v, was %v", now, chain)
	}
	for _, e := range []*Entry{held, chain[0]} {
		vec, ok := c.Vector(e.ID, nil)
		if !ok || vecmath.Dot(vec, hashEmb(16, 2, e.Query)) < 0.999 {
			t.Fatalf("Vector(%d) = %v, %v; want the re-embedded vector", e.ID, vec, ok)
		}
	}
}

// BenchmarkReembed768x500 times moving a 500-entry tenant to a new
// model version at the serving dimension: 500 encodes plus the index
// rebuild, what one FL rollout costs each resident tenant.
func BenchmarkReembed768x500(b *testing.B) {
	m := embed.NewModel(embed.MPNetSim, 1)
	c := New(m.Dim(), 0, LRU{})
	for i := 0; i < 500; i++ {
		q := fmt.Sprintf("cached question number %d", i)
		if _, err := c.Put(q, "r", m.Encode(q), NoParent); err != nil {
			b.Fatal(err)
		}
	}
	m2 := embed.NewModel(embed.MPNetSim, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reembed(m2.Encode); err != nil {
			b.Fatal(err)
		}
	}
}
