package flserve

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/server"
	"repro/internal/store"
)

func TestCollectorLabelsFromServingSignals(t *testing.T) {
	c := NewCollector(CollectorConfig{MaxPairs: 16, NegativeRate: 1, Seed: 1})

	// Hit → tentative positive.
	c.ObserveQuery("u", "how to sort a list", false, "", 0)
	c.ObserveQuery("u", "sort a list in go", true, "how to sort a list", 0.9)
	pairs := c.Shard("u")
	if len(pairs) != 1 || !pairs[0].Dup {
		t.Fatalf("hit pair = %+v", pairs)
	}

	// False-hit feedback with texts retracts that exact positive.
	c.ObserveFeedback("u", server.Feedback{
		Kind: server.FeedbackFalseHit, Query: "sort a list in go", Other: "how to sort a list",
	})
	pairs = c.Shard("u")
	if len(pairs) != 1 || pairs[0].Dup {
		t.Fatalf("retraction failed: %+v", pairs)
	}

	// Missed-dup feedback → positive.
	c.ObserveFeedback("u", server.Feedback{
		Kind: server.FeedbackMissedDup, Query: "reverse a string", Other: "string reversal in go",
	})
	pairs = c.Shard("u")
	if len(pairs) != 2 || !pairs[1].Dup {
		t.Fatalf("missed_dup pair = %+v", pairs)
	}

	// Miss with NegativeRate=1 → weak negative against a recent query.
	c.ObserveQuery("u", "completely new topic", false, "", 0)
	pairs = c.Shard("u")
	last := pairs[len(pairs)-1]
	if last.Dup || last.A != "completely new topic" {
		t.Fatalf("miss negative = %+v", last)
	}

	st := c.Stats()
	if st.Tenants != 1 || st.Positives != 2 || st.Retracted != 1 || st.Negatives == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCollectorBareFalseHitFlipsLatestPositive(t *testing.T) {
	c := NewCollector(CollectorConfig{MaxPairs: 16, Seed: 1})
	c.ObserveQuery("u", "q1", true, "cached-1", 0.9)
	c.ObserveQuery("u", "q2", true, "cached-2", 0.9)
	// Legacy feedback body: {"user":"u"} only.
	c.ObserveFeedback("u", server.Feedback{Kind: server.FeedbackFalseHit})
	pairs := c.Shard("u")
	if pairs[0].Dup != true || pairs[1].Dup != false {
		t.Fatalf("bare feedback flipped the wrong pair: %+v", pairs)
	}
}

func TestCollectorRingBound(t *testing.T) {
	c := NewCollector(CollectorConfig{MaxPairs: 8, Seed: 1})
	for i := 0; i < 50; i++ {
		c.ObserveQuery("u", fmt.Sprintf("q%d", i), true, fmt.Sprintf("m%d", i), 0.9)
	}
	pairs := c.Shard("u")
	if len(pairs) != 8 {
		t.Fatalf("ring grew to %d, want 8", len(pairs))
	}
	// Latest writes survive.
	found := false
	for _, p := range pairs {
		if p.A == "q49" {
			found = true
		}
	}
	if !found {
		t.Fatal("latest pair not in ring")
	}
}

func TestCollectorEligibleAndPersistence(t *testing.T) {
	c := NewCollector(CollectorConfig{MaxPairs: 16, Seed: 1})
	for i := 0; i < 5; i++ {
		c.ObserveQuery("big", fmt.Sprintf("q%d", i), true, fmt.Sprintf("m%d", i), 0.9)
	}
	c.ObserveQuery("small", "q", true, "m", 0.9)
	if got := c.Eligible(3); len(got) != 1 || got[0] != "big" {
		t.Fatalf("Eligible(3) = %v", got)
	}

	st, err := store.Open(filepath.Join(t.TempDir(), "shards.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := c.SaveTo(st); err != nil {
		t.Fatal(err)
	}
	c2 := NewCollector(CollectorConfig{MaxPairs: 16, Seed: 1})
	if err := c2.LoadFrom(st); err != nil {
		t.Fatal(err)
	}
	if got := c2.Shard("big"); len(got) != 5 {
		t.Fatalf("restored shard has %d pairs, want 5", len(got))
	}
	if got := c2.Shard("small"); len(got) != 1 {
		t.Fatalf("restored small shard has %d pairs", len(got))
	}
}

func TestModelRegistryLineageAndPrune(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "models.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, err := NewModelRegistry(st, 2, tinyArch)
	if err != nil {
		t.Fatal(err)
	}
	n := tinyArch.OutDim*tinyArch.EmbDim + (tinyArch.Vocab+1)*tinyArch.EmbDim + tinyArch.OutDim
	mkWeights := func(seed float32) []float32 {
		w := make([]float32, n)
		for i := range w {
			w[i] = seed
		}
		return w
	}
	var versions []string
	for i := 0; i < 3; i++ {
		rec, err := r.Commit(ModelRecord{Round: i, Arch: tinyArch.Name, Dim: tinyArch.OutDim, Tau: 0.5 + float64(i)/100},
			mkWeights(float32(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, rec.Version)
	}
	// Lineage: each version's parent is its predecessor.
	for i := 1; i < 3; i++ {
		rec, ok := r.Lookup(versions[i])
		if !ok || rec.Parent != versions[i-1] {
			t.Fatalf("version %d parent = %q, want %q", i, rec.Parent, versions[i-1])
		}
	}
	// Retention: only 2 payloads survive; the oldest is pruned.
	if _, err := r.Model(versions[0]); err == nil {
		t.Fatal("pruned payload still materialises")
	}
	if _, err := r.Model(versions[2]); err != nil {
		t.Fatalf("latest payload: %v", err)
	}
	// Content addressing: identical content yields the identical version.
	rec, err := r.Commit(ModelRecord{Round: 9, Arch: tinyArch.Name, Tau: 0.5 + 2.0/100}, mkWeights(3))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != versions[2] {
		t.Fatalf("re-commit produced %s, want %s", rec.Version, versions[2])
	}
}
