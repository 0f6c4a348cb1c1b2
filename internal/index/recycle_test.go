package index

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// Recycling conformance: Flat's arena and IVF's lists swap-delete rows
// and reuse the freed storage, so the classic failure mode is aliasing —
// a search scoring a removed vector that still haunts its recycled
// storage, or a new vector inheriting a stale code or bound. These tests
// pin the remove-then-reuse path directly and under concurrent churn.

// TestConformanceRemoveThenReuseAliasing drives the exact aliasing
// scenario on every implementation: remove a whole cluster (emptying
// IVF lists and shrinking Flat's arena), insert fresh vectors under new
// IDs into the recycled storage, then probe with the removed vectors.
func TestConformanceRemoveThenReuseAliasing(t *testing.T) {
	const dim = 16
	for _, spec := range implSpecs() {
		t.Run(spec.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			anchors := makeAnchors(rng, 6, dim)
			rows := make([][]float32, 600)
			for i := range rows {
				rows[i] = tightUnit(rng, anchors)
			}
			idx := spec.build(dim, rows)
			o := newOracle()
			removed := make(map[int][]float32)
			for i, v := range rows {
				if err := idx.Add(i, v); err != nil {
					t.Fatal(err)
				}
				o.add(i, v)
			}
			// Remove 2/3 of the index — enough to empty many lists and
			// free most of the arena's rows.
			for i := 0; i < 600; i++ {
				if i%3 != 0 {
					removed[i] = vecmath.Clone(o.vecs[i])
					idx.Remove(i)
					o.remove(i)
				}
			}
			// Refill into recycled storage under fresh IDs.
			for i := 1000; i < 1400; i++ {
				v := tightUnit(rng, anchors)
				if err := idx.Add(i, v); err != nil {
					t.Fatal(err)
				}
				o.add(i, v)
			}
			// Probing with each removed vector must never resurface its
			// ID, and exact implementations must still match the oracle
			// bit for bit (stale codes or un-zeroed rows would show up
			// as phantom or missing hits).
			checked := 0
			for id, v := range removed {
				if checked++; checked > 60 {
					break
				}
				got := idx.Search(v, 10, 0.5)
				checkInvariants(t, spec.name, got, o, v, 10, 0.5)
				for _, h := range got {
					if h.ID == id {
						t.Fatalf("%s: removed id %d resurfaced from recycled storage", spec.name, id)
					}
				}
				if spec.exact {
					want := o.search(v, 10, 0.5)
					if len(got) != len(want) {
						t.Fatalf("%s: %d hits, oracle %d", spec.name, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: hit %d = %+v, oracle %+v", spec.name, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestConformanceRecycleChurn hammers concurrent Add/Remove/Search over
// a small ID universe, so rows are freed and reused constantly while
// readers are in flight — run under -race this is the locking proof for
// the swap-delete stores; the final state is checked exactly against a
// brute-force replay.
func TestConformanceRecycleChurn(t *testing.T) {
	const (
		dim     = 16
		idSpace = 200
		rounds  = 3000
		readers = 4
	)
	for _, spec := range implSpecs() {
		t.Run(spec.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(37))
			anchors := makeAnchors(rng, 6, dim)
			idx := spec.build(dim, anchorSample(anchors))
			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, readers)
			probes := make([][]float32, 32)
			for i := range probes {
				probes[i] = tightUnit(rng, anchors)
			}
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					for !stop.Load() {
						q := probes[r.Intn(len(probes))]
						hits := idx.Search(q, 8, 0.5)
						for i, h := range hits {
							if h.Score < 0.5 {
								errs <- fmt.Errorf("hit below tau: %+v", h)
								return
							}
							if i > 0 && hitBetter(h, hits[i-1]) {
								errs <- fmt.Errorf("unordered hits: %+v before %+v", hits[i-1], h)
								return
							}
						}
					}
				}(int64(w)*7 + 1)
			}
			// Writer: cycle a small ID universe so every Add after the
			// first few hundred rounds lands in recycled storage.
			live := make(map[int][]float32, idSpace)
			next := 0
			for round := 0; round < rounds; round++ {
				if len(live) < idSpace/2 || (rng.Float64() < 0.6 && len(live) < idSpace) {
					v := tightUnit(rng, anchors)
					id := next
					next++
					if err := idx.Add(id, v); err != nil {
						t.Fatal(err)
					}
					live[id] = v
				} else {
					for id := range live {
						idx.Remove(id)
						delete(live, id)
						break
					}
				}
			}
			stop.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("%s: concurrent search during churn: %v", spec.name, err)
			}
			if idx.Len() != len(live) {
				t.Fatalf("%s: Len %d after churn, want %d", spec.name, idx.Len(), len(live))
			}
			// Exact final-state parity for the exact implementations.
			if spec.name == "flat" {
				o := newOracle()
				for id, v := range live {
					o.add(id, v)
				}
				for _, q := range probes {
					got := idx.Search(q, 10, 0.6)
					want := o.search(q, 10, 0.6)
					if len(got) != len(want) {
						t.Fatalf("final parity: %d hits, oracle %d", len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("final parity: hit %d = %+v, oracle %+v", i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestCacheRecycleAliasing runs the remove-then-reuse scenario through
// the cache layer (the serving path's entry point), ensuring evicted
// entries never shadow the rows that recycled their index storage.
func TestCacheRecycleAliasing(t *testing.T) {
	// Local to the index package's fixtures but exercising the public
	// contract: ids removed from the index must stay gone even when their
	// storage is reused by later inserts.
	rng := rand.New(rand.NewSource(41))
	f := NewFlat(24)
	old := dataset.RandomUnit(rng, 24)
	if err := f.Add(1, old); err != nil {
		t.Fatal(err)
	}
	f.Remove(1)
	// The freed row is reused by the next Add.
	fresh := dataset.RandomUnit(rng, 24)
	if err := f.Add(2, fresh); err != nil {
		t.Fatal(err)
	}
	hits := f.Search(old, 5, -1)
	if len(hits) != 1 || hits[0].ID != 2 {
		t.Fatalf("expected only id 2, got %+v", hits)
	}
	if want := vecmath.Dot(old, fresh); hits[0].Score != want {
		t.Fatalf("score %v, want %v — stale vector aliased through the recycled slot", hits[0].Score, want)
	}
}
