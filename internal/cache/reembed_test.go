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
		"indexed": NewWithIndex(16, 0, LRU{}, index.NewIVF(16, index.IVFConfig{NList: 4, NProbe: 4, TrainSize: 20, Seed: 1})),
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
		if vecmath.Dot(e.Embedding, hashEmb(16, 2, e.Query)) < 0.999 {
			t.Fatalf("entry %q left in the old embedding space", e.Query)
		}
	}
}

func TestReembedReplacesEntriesInsteadOfMutating(t *testing.T) {
	// Callers hold *Entry pointers beyond the cache lock (context chains,
	// in-flight matches): Reembed must leave old snapshots untouched.
	c := New(16, 0, LRU{})
	id, err := c.Put("q", "r", hashEmb(16, 1, "q"), NoParent)
	if err != nil {
		t.Fatal(err)
	}
	old, _ := c.Get(id)
	oldEmb := old.Embedding
	if _, err := c.Reembed(func(q string) []float32 { return hashEmb(16, 2, q) }); err != nil {
		t.Fatal(err)
	}
	if vecmath.Dot(oldEmb, hashEmb(16, 1, "q")) < 0.999 || &old.Embedding[0] != &oldEmb[0] {
		t.Fatal("Reembed mutated an entry snapshot held by a caller")
	}
	cur, _ := c.Get(id)
	if vecmath.Dot(cur.Embedding, hashEmb(16, 2, "q")) < 0.999 {
		t.Fatal("cache's current entry not migrated")
	}
}

// BenchmarkReembed768x500 times migrating a 500-entry tenant to a new
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
