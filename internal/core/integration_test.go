package core

import (
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/index"
	"repro/internal/llmsim"
	"repro/internal/store"
	"repro/internal/train"
)

// TestEndToEndOverHTTP drives the full deployment topology: a MeanCache
// client on "the user's device" fronting the simulated LLM web service
// over a real HTTP connection (Figure 1). Cache hits must avoid the
// network entirely.
func TestEndToEndOverHTTP(t *testing.T) {
	svc := llmsim.New(llmsim.DefaultConfig())
	srv, err := llmsim.Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	enc := newStub(64)
	enc.alias(1, "what is federated learning", "explain federated learning to me")
	client := New(Options{
		Encoder: enc,
		LLM:     llmsim.NewClient(srv.Addr()),
		Tau:     0.8,
	})

	r1, err := client.Query("what is federated learning")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r1.Hit {
		t.Fatal("first query hit an empty cache")
	}
	if svc.Queries() != 1 {
		t.Fatalf("service saw %d queries, want 1", svc.Queries())
	}

	r2, err := client.Query("explain federated learning to me")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !r2.Hit {
		t.Fatal("paraphrase missed")
	}
	if svc.Queries() != 1 {
		t.Fatalf("cache hit still reached the service: %d queries", svc.Queries())
	}
	if r2.Response != r1.Response {
		t.Fatal("cached response differs from the service's")
	}
}

// TestTrainedEndToEnd exercises the real pipeline end to end with no
// stubs: train an encoder on the synthetic corpus, find its cache-aware
// threshold, deploy it in a client, and verify semantic (not just exact)
// hits on fresh realisations of cached intents.
func TestTrainedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trained end-to-end test skipped in -short mode")
	}
	cfg := dataset.DefaultConfig()
	cfg.Concepts = 300
	cfg.Intents = 400
	corpus := dataset.GenerateCorpus(cfg)

	arch := embed.MPNetSim
	arch.Vocab = 4096
	arch.EmbDim = 96
	arch.OutDim = 192
	m := embed.NewModel(arch, 5)
	tcfg := train.DefaultConfig()
	tcfg.Epochs = 3
	train.NewTrainer(m, train.NewSGD(tcfg.LR), tcfg).Train(corpus.Train)
	tau := train.CacheSweep(m, corpus.Val[:150], 0.01, 0.5).Optimal.Tau

	llm := llmsim.New(llmsim.DefaultConfig())
	client := New(Options{Encoder: m, LLM: llm, Tau: float32(tau)})

	// Populate with one realisation per intent; probe with fresh
	// paraphrases of a sample of them.
	w := dataset.GenerateCacheWorkload(cfg, 200, 100, 0.5)
	for _, q := range w.Cached {
		if _, err := client.Query(q); err != nil {
			t.Fatalf("populate: %v", err)
		}
	}
	hits, dups := 0, 0
	falseHits, nonDups := 0, 0
	for _, p := range w.Probes {
		res := client.Lookup(p.Text, nil)
		if p.DupOf >= 0 {
			dups++
			if res.Hit {
				hits++
			}
		} else {
			nonDups++
			if res.Hit {
				falseHits++
			}
		}
	}
	if hits < dups/2 {
		t.Errorf("semantic hit rate %d/%d below 50%%", hits, dups)
	}
	if falseHits > nonDups/3 {
		t.Errorf("false hits %d/%d above 33%%", falseHits, nonDups)
	}
	t.Logf("tau=%.2f hits=%d/%d falseHits=%d/%d", tau, hits, dups, falseHits, nonDups)
}

// TestPersistentClientLifecycle runs the full local lifecycle: query,
// persist the cache to disk, reload into a new client, and verify hits
// survive the restart.
func TestPersistentClientLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.db")
	enc := newStub(32)
	enc.alias(2, "persistent question", "persistent question again")
	llm := &stubLLM{}

	client := New(Options{Encoder: enc, LLM: llm, Tau: 0.9})
	r, err := client.Query("persistent question")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Cache().SaveTo(st); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	st.Close()

	// "Restart": fresh store handle, fresh cache, fresh client.
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	loaded, err := cache.LoadFrom(st2, enc.Dim(), 0, cache.LRU{})
	if err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if loaded.Len() != 1 {
		t.Fatalf("loaded %d entries, want 1", loaded.Len())
	}
	e := loaded.Entries()[0]
	if e.Query != "persistent question" || e.Response != r.Response {
		t.Fatal("persisted entry corrupted")
	}
}

// TestClientWithIVFIndexedCache verifies core works on top of a cache
// whose Adaptive index has promoted to IVF (the large-cache
// configuration).
func TestClientWithIVFIndexedCache(t *testing.T) {
	enc := newStub(32)
	enc.alias(3, "find me", "find me too")
	llm := &stubLLM{}
	c := New(Options{Encoder: enc, LLM: llm, Tau: 0.9})
	// Swap in a cache whose index promotes to IVF past 10 entries.
	adaptive := index.NewAdaptive(32, index.AdaptiveConfig{FlatMax: 10})
	c.cache = cache.NewWithIndex(32, 0, cache.LRU{}, adaptive)

	for i := 0; i < 20; i++ {
		if _, err := c.Query("filler query number " + string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if tier := c.cache.ServingTier(); tier != "ivf" {
		t.Fatalf("20 entries past FlatMax 10 serve from %q, want ivf", tier)
	}
	c.Query("find me")
	res := c.Lookup("find me too", nil)
	if !res.Hit {
		t.Fatal("IVF-backed client missed a duplicate")
	}
}
