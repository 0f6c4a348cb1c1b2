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

// The cross-index conformance suite: one property harness run against
// every Index implementation. Randomized Add/Remove/Search interleavings
// are checked against a brute-force oracle — exact result parity for the
// exact implementations (Flat, Adaptive below its first threshold),
// invariants plus an aggregate recall floor for the approximate ones
// (IVF, HNSW, promoted Adaptive). A separate test drives concurrent
// Search during Add/Remove for the race detector.

// implSpec describes one implementation under conformance test.
type implSpec struct {
	name      string
	build     func(dim int) Index
	exact     bool    // must match the oracle exactly
	minRecall float64 // aggregate recall@k floor when !exact
}

func implSpecs() []implSpec {
	return []implSpec{
		{
			name:  "flat",
			build: func(dim int) Index { return NewFlat(dim) },
			exact: true,
		},
		{
			name: "ivf",
			build: func(dim int) Index {
				return NewIVF(dim, IVFConfig{NList: 16, NProbe: 8, TrainSize: 200, Seed: 7})
			},
			minRecall: 0.9,
		},
		{
			name: "hnsw",
			build: func(dim int) Index {
				return NewHNSW(dim, HNSWConfig{M: 8, EfConstruction: 60, EfSearch: 80, Seed: 7})
			},
			minRecall: 0.9,
		},
		{
			name: "adaptive-small", // stays Flat: must be exact
			build: func(dim int) Index {
				return NewAdaptive(dim, AdaptiveConfig{FlatMax: 1 << 20})
			},
			exact: true,
		},
		{
			name: "adaptive", // promotes Flat→IVF→HNSW mid-run
			build: func(dim int) Index {
				return NewAdaptive(dim, AdaptiveConfig{
					FlatMax: 150, IVFMax: 500,
					IVF:  IVFConfig{NList: 12, NProbe: 8, Seed: 7},
					HNSW: HNSWConfig{M: 8, EfConstruction: 60, EfSearch: 80, Seed: 7},
				})
			},
			minRecall: 0.9,
		},
	}
}

// oracle is the brute-force ground truth the implementations are checked
// against.
type oracle struct {
	vecs map[int][]float32
}

func newOracle() *oracle { return &oracle{vecs: make(map[int][]float32)} }

func (o *oracle) add(id int, vec []float32) { o.vecs[id] = vecmath.Clone(vec) }
func (o *oracle) remove(id int)             { delete(o.vecs, id) }
func (o *oracle) has(id int) bool           { _, ok := o.vecs[id]; return ok }
func (o *oracle) score(id int, q []float32) float32 {
	return vecmath.Dot(q, o.vecs[id])
}

// search replicates the documented result contract: score ≥ tau, ordered
// by descending score with ties broken by ascending ID, truncated to k.
func (o *oracle) search(q []float32, k int, tau float32) []Hit {
	var hits []Hit
	for id, v := range o.vecs {
		if s := vecmath.Dot(q, v); s >= tau {
			hits = append(hits, Hit{ID: id, Score: s})
		}
	}
	sortHits(hits)
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// tightUnit draws a unit vector near one of the anchors (total noise norm
// ~0.35 regardless of dim — dataset's embedding-cluster geometry).
func tightUnit(rng *rand.Rand, anchors [][]float32) []float32 {
	return dataset.PerturbUnit(rng, anchors[rng.Intn(len(anchors))], 0.35)
}

func makeAnchors(rng *rand.Rand, n, dim int) [][]float32 {
	anchors := make([][]float32, n)
	for i := range anchors {
		anchors[i] = dataset.RandomUnit(rng, dim)
	}
	return anchors
}

// checkInvariants verifies the properties every implementation must
// uphold on every search result, approximate or not.
func checkInvariants(t *testing.T, name string, hits []Hit, o *oracle, q []float32, k int, tau float32) {
	t.Helper()
	if len(hits) > k {
		t.Fatalf("%s: %d hits for k=%d", name, len(hits), k)
	}
	seen := make(map[int]bool, len(hits))
	for _, h := range hits {
		if seen[h.ID] {
			t.Fatalf("%s: duplicate id %d in results", name, h.ID)
		}
		seen[h.ID] = true
		if !o.has(h.ID) {
			t.Fatalf("%s: removed or unknown id %d leaked into results", name, h.ID)
		}
		if h.Score < tau {
			t.Fatalf("%s: hit %d scored %f below tau %f", name, h.ID, h.Score, tau)
		}
		if want := o.score(h.ID, q); absDiff(h.Score, want) > 1e-4 {
			t.Fatalf("%s: id %d reported score %f, true score %f", name, h.ID, h.Score, want)
		}
	}
	for i := 1; i < len(hits); i++ {
		if hitBetter(hits[i], hits[i-1]) {
			t.Fatalf("%s: tie/order violation at %d: %+v before %+v", name, i, hits[i-1], hits[i])
		}
	}
}

func absDiff(a, b float32) float32 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestConformanceRandomOps is the core property test: a randomized
// interleaving of Add (10% duplicate vectors, forcing score ties), Remove
// and Search, with every search checked against the oracle.
func TestConformanceRandomOps(t *testing.T) {
	const (
		dim = 16
		ops = 2500
		k   = 10
	)
	for _, spec := range implSpecs() {
		t.Run(spec.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			anchors := makeAnchors(rng, 12, dim)
			idx := spec.build(dim)
			o := newOracle()
			var ids []int
			nextID := 0
			var recallHit, recallTotal int

			for op := 0; op < ops; op++ {
				switch r := rng.Float64(); {
				case r < 0.60 || len(ids) == 0: // add
					var v []float32
					if len(ids) > 0 && rng.Float64() < 0.10 {
						// Duplicate an existing vector under a new ID —
						// exercises the (score tie → ascending ID) rule.
						v = vecmath.Clone(o.vecs[ids[rng.Intn(len(ids))]])
					} else {
						v = tightUnit(rng, anchors)
					}
					id := nextID
					nextID++
					if err := idx.Add(id, v); err != nil {
						t.Fatalf("Add(%d): %v", id, err)
					}
					o.add(id, v)
					ids = append(ids, id)
				case r < 0.75: // remove
					i := rng.Intn(len(ids))
					id := ids[i]
					ids[i] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
					idx.Remove(id)
					idx.Remove(id) // double-remove must be a no-op
					o.remove(id)
				default: // search
					var q []float32
					if rng.Float64() < 0.5 && len(ids) > 0 {
						q = o.vecs[ids[rng.Intn(len(ids))]]
					} else {
						q = tightUnit(rng, anchors)
					}
					tau := float32(-1)
					if rng.Float64() < 0.3 {
						tau = float32(rng.Float64() * 0.9)
					}
					got := idx.Search(q, k, tau)
					want := o.search(q, k, tau)
					checkInvariants(t, spec.name, got, o, q, k, tau)
					if spec.exact {
						if len(got) != len(want) {
							t.Fatalf("exact %s: %d hits, oracle %d (op %d)", spec.name, len(got), len(want), op)
						}
						for i := range got {
							if got[i].ID != want[i].ID {
								t.Fatalf("exact %s: hit %d is id %d, oracle id %d", spec.name, i, got[i].ID, want[i].ID)
							}
						}
					} else if tau == -1 {
						in := make(map[int]bool, len(got))
						for _, h := range got {
							in[h.ID] = true
						}
						for _, h := range want {
							recallTotal++
							if in[h.ID] {
								recallHit++
							}
						}
					}
				}
			}
			if a, ok := idx.(*Adaptive); ok {
				a.WaitMigration()
			}
			if idx.Len() != len(o.vecs) {
				t.Fatalf("%s: Len %d, oracle %d", spec.name, idx.Len(), len(o.vecs))
			}
			if !spec.exact && recallTotal > 0 {
				recall := float64(recallHit) / float64(recallTotal)
				t.Logf("%s aggregate recall@%d = %.3f over %d truths", spec.name, k, recall, recallTotal)
				if recall < spec.minRecall {
					t.Fatalf("%s: recall %.3f below floor %.2f", spec.name, recall, spec.minRecall)
				}
			}
		})
	}
}

// TestConformanceTieOrdering pins the tie rule directly: identical
// vectors under many IDs must come back ordered by ascending ID for every
// implementation.
func TestConformanceTieOrdering(t *testing.T) {
	const dim = 8
	for _, spec := range implSpecs() {
		t.Run(spec.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			idx := spec.build(dim)
			v := unit(rng, dim)
			// Insert the same vector under shuffled IDs, plus filler so
			// approximate structures have a real graph/list layout.
			ids := rng.Perm(40)
			for _, id := range ids {
				if err := idx.Add(100+id, v); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 300; i++ {
				idx.Add(1000+i, unit(rng, dim))
			}
			hits := idx.Search(v, 20, 0.999)
			if len(hits) == 0 {
				t.Fatal("no hits for an exact-duplicate probe")
			}
			// Equal scores must come back in ascending-ID order everywhere;
			// the exact implementations must additionally return precisely
			// the lowest 20 of the 40 tied IDs.
			for i := 1; i < len(hits); i++ {
				if hits[i].Score == hits[i-1].Score && hits[i].ID <= hits[i-1].ID {
					t.Fatalf("tie ordering: id %d before id %d at equal score", hits[i-1].ID, hits[i].ID)
				}
			}
			if spec.exact {
				if len(hits) != 20 {
					t.Fatalf("exact: %d hits, want 20", len(hits))
				}
				for i, h := range hits {
					if want := 100 + i; h.ID != want {
						t.Fatalf("tie ordering: hit %d is id %d, want %d (ties must sort by ascending ID)", i, h.ID, want)
					}
				}
			}
		})
	}
}

// TestConformanceRemovedNeverLeak hammers the remove path: after heavy
// churn, no removed ID may ever surface again — the tombstone-leak class
// of bug (IVF swap-delete bookkeeping, HNSW tombstones).
func TestConformanceRemovedNeverLeak(t *testing.T) {
	const dim = 16
	for _, spec := range implSpecs() {
		t.Run(spec.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			anchors := makeAnchors(rng, 8, dim)
			idx := spec.build(dim)
			vecs := make(map[int][]float32)
			for i := 0; i < 800; i++ {
				v := tightUnit(rng, anchors)
				if err := idx.Add(i, v); err != nil {
					t.Fatal(err)
				}
				vecs[i] = v
			}
			// Remove every third entry, probing each removed vector.
			for i := 0; i < 800; i += 3 {
				idx.Remove(i)
				for _, h := range idx.Search(vecs[i], 5, -1) {
					if h.ID%3 == 0 && h.ID <= i {
						t.Fatalf("removed id %d leaked from Search", h.ID)
					}
				}
			}
			if a, ok := idx.(*Adaptive); ok {
				a.WaitMigration()
			}
			want := 800 - (800+2)/3
			if idx.Len() != want {
				t.Fatalf("Len = %d, want %d", idx.Len(), want)
			}
		})
	}
}

// TestConformanceMultiSearchParity pins the batched-search contract on
// every implementation: MultiSearchAppend must be bit-identical — same
// IDs, same scores, same order, per probe — to running the probes through
// Search one at a time, including after removals have left tombstoned or
// swap-deleted rows behind, and it must append after whatever the caller
// already had in each destination slice.
func TestConformanceMultiSearchParity(t *testing.T) {
	const (
		dim = 16
		n   = 600
		m   = 24
	)
	for _, spec := range implSpecs() {
		t.Run(spec.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			anchors := makeAnchors(rng, 10, dim)
			idx := spec.build(dim)
			ms, ok := idx.(MultiSearcher)
			if !ok {
				t.Fatalf("%T does not implement MultiSearcher", idx)
			}
			vecs := make([][]float32, n)
			for i := 0; i < n; i++ {
				v := tightUnit(rng, anchors)
				if len(vecs) > 0 && i > 0 && rng.Float64() < 0.1 {
					v = vecmath.Clone(vecs[rng.Intn(i)]) // score ties
				}
				if err := idx.Add(i, v); err != nil {
					t.Fatal(err)
				}
				vecs[i] = v
			}
			// Leave removal scars mid-structure: tombstones in HNSW,
			// swap-deleted arena rows in Flat/IVF.
			for i := 0; i < n; i += 5 {
				idx.Remove(i)
			}
			if a, ok := idx.(*Adaptive); ok {
				a.WaitMigration() // pin the tier so both paths query one index
			}
			for _, cfg := range []struct {
				k   int
				tau float32
			}{{5, 0.8}, {10, 0.5}, {3, -1}, {10, 0.99}, {0, 0.5}} {
				probes := vecmath.NewMatrix(m, dim)
				for p := 0; p < m; p++ {
					var q []float32
					switch p % 3 {
					case 0:
						q = vecs[rng.Intn(n)] // possibly a removed entry's vector
					case 1:
						q = tightUnit(rng, anchors)
					default:
						q = dataset.RandomUnit(rng, dim)
					}
					copy(probes.Row(p), q)
				}
				sentinel := Hit{ID: -99, Score: -99}
				dst := make([][]Hit, m)
				for p := range dst {
					if p%2 == 0 {
						dst[p] = append(dst[p], sentinel)
					}
				}
				ms.MultiSearchAppend(probes, cfg.k, cfg.tau, dst)
				for p := 0; p < m; p++ {
					got := dst[p]
					if p%2 == 0 {
						if len(got) == 0 || got[0] != sentinel {
							t.Fatalf("%s k=%d tau=%v probe %d: append contract broken, sentinel lost", spec.name, cfg.k, cfg.tau, p)
						}
						got = got[1:]
					}
					want := idx.Search(probes.Row(p), cfg.k, cfg.tau)
					if len(got) != len(want) {
						t.Fatalf("%s k=%d tau=%v probe %d: %d batched hits, %d sequential", spec.name, cfg.k, cfg.tau, p, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s k=%d tau=%v probe %d hit %d: batched %+v, sequential %+v — not bit-identical",
								spec.name, cfg.k, cfg.tau, p, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestConformanceMultiSearchEmptyAndOversizedDst pins the edge contract:
// zero probes is a no-op, and destination tables longer than the probe
// count leave the excess rows untouched.
func TestConformanceMultiSearchEmptyAndOversizedDst(t *testing.T) {
	const dim = 8
	for _, spec := range implSpecs() {
		t.Run(spec.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			idx := spec.build(dim)
			for i := 0; i < 50; i++ {
				if err := idx.Add(i, unit(rng, dim)); err != nil {
					t.Fatal(err)
				}
			}
			ms := idx.(MultiSearcher)
			empty := vecmath.NewMatrix(0, dim)
			ms.MultiSearchAppend(empty, 5, 0.1, nil) // must not panic
			probes := vecmath.NewMatrix(2, dim)
			copy(probes.Row(0), unit(rng, dim))
			copy(probes.Row(1), unit(rng, dim))
			marker := []Hit{{ID: -1, Score: 42}}
			dst := [][]Hit{nil, nil, marker}
			ms.MultiSearchAppend(probes, 5, -1, dst)
			if len(dst[2]) != 1 || dst[2][0] != marker[0] {
				t.Fatalf("dst row beyond probes.Rows was touched: %+v", dst[2])
			}
		})
	}
}

// TestConformanceConcurrentSearchDuringAdd drives concurrent Search
// against a writer interleaving Add and Remove — run under -race, this is
// the locking conformance check. Results can lag the writer, so only
// order/bound/tau invariants are asserted, not membership.
func TestConformanceConcurrentSearchDuringAdd(t *testing.T) {
	const (
		dim     = 16
		total   = 1500
		readers = 4
	)
	for _, spec := range implSpecs() {
		t.Run(spec.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			anchors := makeAnchors(rng, 8, dim)
			vecs := make([][]float32, total)
			for i := range vecs {
				vecs[i] = tightUnit(rng, anchors)
			}
			idx := spec.build(dim)
			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, readers)
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					for !stop.Load() {
						q := vecs[r.Intn(total)]
						hits := idx.Search(q, 10, 0.5)
						if len(hits) > 10 {
							errs <- fmt.Errorf("%d hits for k=10", len(hits))
							return
						}
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
				}(int64(w) * 101)
			}
			for i, v := range vecs {
				if err := idx.Add(i, v); err != nil {
					t.Fatal(err)
				}
				if i%7 == 0 && i > 0 {
					idx.Remove(i - 1)
				}
			}
			stop.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("%s: concurrent search: %v", spec.name, err)
			}
			if a, ok := idx.(*Adaptive); ok {
				a.WaitMigration()
			}
			removed := (total - 1) / 7
			if got := idx.Len(); got != total-removed {
				t.Fatalf("Len = %d, want %d", got, total-removed)
			}
		})
	}
}
