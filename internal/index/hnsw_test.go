package index

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestHNSWBasics(t *testing.T) {
	h := NewHNSW(8, HNSWConfig{Seed: 1})
	if hits := h.Search(make([]float32, 8), 5, 0); len(hits) != 0 {
		t.Fatalf("empty index returned %v", hits)
	}
	v := []float32{1, 0, 0, 0, 0, 0, 0, 0}
	if err := h.Add(1, v); err != nil {
		t.Fatal(err)
	}
	if err := h.Add(1, v); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := h.Add(2, []float32{1, 0}); err == nil {
		t.Fatal("wrong dimension accepted")
	}
	if h.Len() != 1 || h.Dim() != 8 {
		t.Fatalf("Len=%d Dim=%d", h.Len(), h.Dim())
	}
	hits := h.Search(v, 5, 0.5)
	if len(hits) != 1 || hits[0].ID != 1 || hits[0].Score < 0.999 {
		t.Fatalf("self search = %v", hits)
	}
}

// TestHNSWSlotReuse drains the index and refills it: tombstoned slots
// must be recycled and the rebuilt graph fully searchable.
func TestHNSWSlotReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := NewHNSW(16, HNSWConfig{M: 8, EfConstruction: 40, EfSearch: 48, Seed: 2})
	anchors := makeAnchors(rng, 4, 16)
	for round := 0; round < 3; round++ {
		base := round * 100
		vecs := make([][]float32, 100)
		for i := range vecs {
			vecs[i] = tightUnit(rng, anchors)
			if err := h.Add(base+i, vecs[i]); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if h.Len() != 100 {
			t.Fatalf("round %d: Len = %d", round, h.Len())
		}
		for i, v := range vecs {
			hits := h.Search(v, 1, 0.999)
			if len(hits) != 1 || hits[0].ID != base+i {
				t.Fatalf("round %d: entry %d not found: %v", round, base+i, hits)
			}
		}
		for i := range vecs {
			h.Remove(base + i)
		}
		if h.Len() != 0 {
			t.Fatalf("round %d: Len = %d after drain", round, h.Len())
		}
	}
	// All three rounds fit in the first round's slots.
	if got := len(h.nodes); got > 150 {
		t.Fatalf("slot recycling failed: %d slots for 100 live peak", got)
	}
}

// TestHNSWEntryPointRemoval removes nodes until the graph is empty —
// covering entry-point reassignment — then refills and searches.
func TestHNSWEntryPointRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := NewHNSW(16, HNSWConfig{M: 8, EfConstruction: 40, EfSearch: 48, Seed: 4})
	vecs := make([][]float32, 60)
	for i := range vecs {
		vecs[i] = unit(rng, 16)
		h.Add(i, vecs[i])
	}
	// Remove in insertion order: the entry point (whatever level holds
	// it) is hit eventually; survivors must stay reachable throughout.
	for i := 0; i < 60; i++ {
		h.Remove(i)
		for j := i + 1; j < 60; j += 13 {
			hits := h.Search(vecs[j], 1, 0.999)
			if len(hits) != 1 || hits[0].ID != j {
				t.Fatalf("after removing 0..%d: entry %d unreachable", i, j)
			}
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func ExampleHNSW() {
	h := NewHNSW(4, HNSWConfig{M: 4, EfConstruction: 16, EfSearch: 16, Seed: 1})
	h.Add(0, []float32{1, 0, 0, 0})
	h.Add(1, []float32{0, 1, 0, 0})
	h.Add(2, []float32{0, 0, 1, 0})
	hits := h.Search([]float32{1, 0, 0, 0}, 2, 0.5)
	fmt.Println(len(hits), hits[0].ID)
	// Output: 1 0
}
