package index

import (
	"math/rand"
	"sort"
	"testing"
)

// TestAdaptiveThresholdNormalization pins NewAdaptive's one setting: an
// unset or negative FlatMax is DefaultFlatMax, a positive one is kept as
// given.
func TestAdaptiveThresholdNormalization(t *testing.T) {
	const dim = 8
	cases := []struct {
		name    string
		cfg     AdaptiveConfig
		flatMax int
	}{
		{"defaults", AdaptiveConfig{}, DefaultFlatMax},
		{"negative-default", AdaptiveConfig{FlatMax: -7}, DefaultFlatMax},
		{"explicit", AdaptiveConfig{FlatMax: 150}, 150},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := NewAdaptive(dim, tc.cfg).flatMax; got != tc.flatMax {
				t.Fatalf("flatMax = %d, want %d", got, tc.flatMax)
			}
		})
	}
}

// TestAdaptiveRegrowUnderRacingWrites bulk-loads an Adaptive far past
// regrowFactor × the rows its IVF was built from without ever waiting,
// so Adds and Removes race the Flat→IVF build and every regrowth that
// chains from it. Afterwards the tier must be a regrown IVF, the ID set
// must match an oracle exactly, and every live vector must be its own
// top hit. Run under -race this also exercises journal/migrate
// synchronisation.
func TestAdaptiveRegrowUnderRacingWrites(t *testing.T) {
	const dim, flatMax, total = 8, 150, 3000
	rng := rand.New(rand.NewSource(23))
	a := NewAdaptive(dim, AdaptiveConfig{FlatMax: flatMax})
	oracle := map[int][]float32{}
	for id := 0; id < total; id++ {
		v := unit(rng, dim)
		if err := a.Add(id, v); err != nil {
			t.Fatalf("Add(%d): %v", id, err)
		}
		oracle[id] = v
		if id%17 == 0 && id >= 13 {
			victim := id - 13
			a.Remove(victim)
			delete(oracle, victim)
		}
	}
	a.WaitMigration()
	if tier := a.Tier(); tier != "ivf" {
		t.Fatalf("after the load: tier = %q, want ivf (len %d)", tier, a.Len())
	}
	if built := a.cur.Load().built; built <= flatMax+1 || regrowFactor*built < len(oracle) {
		t.Fatalf("serving IVF built at %d entries for %d live: want a regrowth past %d and no more than %d× growth since",
			built, len(oracle), flatMax+1, regrowFactor)
	}
	if n := a.Len(); n != len(oracle) {
		t.Fatalf("Len = %d, want %d", n, len(oracle))
	}
	got := a.cur.Load().idx.idList()
	sort.Ints(got)
	want := make([]int, 0, len(oracle))
	for id := range oracle {
		want = append(want, id)
	}
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("idList has %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("idList[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	for id, v := range oracle {
		if hits := a.Search(v, 1, -1); len(hits) != 1 || hits[0].ID != id {
			t.Fatalf("self-lookup of id %d = %v", id, hits)
		}
	}
}

// TestAdaptiveRegrowDeterministic loads two Adaptives with the same
// vectors, waiting out every build (settled), and requires bit-identical
// Search results once both have regrown: a regrowth samples its
// snapshot in ID order, never in the map order of the IVF it replaces.
func TestAdaptiveRegrowDeterministic(t *testing.T) {
	const dim, flatMax, total = 16, 150, 2000
	rng := rand.New(rand.NewSource(5))
	corpus := clustered(rng, total, 24, dim, 0.3)
	load := func() *Adaptive {
		a := NewAdaptive(dim, AdaptiveConfig{FlatMax: flatMax})
		for id, v := range corpus {
			if err := a.Add(id, v); err != nil {
				t.Fatalf("Add(%d): %v", id, err)
			}
			a.WaitMigration()
		}
		if built := a.cur.Load().built; built <= flatMax+1 {
			t.Fatalf("serving IVF built at %d entries: no regrowth", built)
		}
		return a
	}
	x, y := load(), load()
	for i := 0; i < 200; i++ {
		q := corpus[rng.Intn(total)]
		if i%2 == 1 {
			q = unit(rng, dim)
		}
		hx, hy := x.Search(q, 10, -1), y.Search(q, 10, -1)
		if len(hx) != len(hy) {
			t.Fatalf("probe %d: %d hits vs %d", i, len(hx), len(hy))
		}
		for j := range hx {
			if hx[j] != hy[j] {
				t.Fatalf("probe %d hit %d: %+v vs %+v", i, j, hx[j], hy[j])
			}
		}
	}
}

// vanishingFlat is a Flat whose rows are all removed the moment a
// migration lists them, as concurrent removes landing between the ID
// list and the vector copies would: the snapshot comes out empty.
type vanishingFlat struct{ *Flat }

func (v vanishingFlat) idList() []int {
	ids := v.Flat.idList()
	for _, id := range ids {
		v.Remove(id)
	}
	return ids
}

// TestAdaptiveEmptySnapshotBuildsNothing: a promotion whose snapshot
// lost every row trains no IVF. The current tier keeps serving, the
// migration flag clears, and the index keeps taking writes.
func TestAdaptiveEmptySnapshotBuildsNothing(t *testing.T) {
	const dim, flatMax = 8, 4
	rng := rand.New(rand.NewSource(29))
	a := NewAdaptive(dim, AdaptiveConfig{FlatMax: flatMax})
	flat := vanishingFlat{NewFlat(dim)}
	a.cur.Store(&tierRef{idx: flat})
	for id := 0; id <= flatMax; id++ { // the last Add starts the promotion
		if err := a.Add(id, unit(rng, dim)); err != nil {
			t.Fatal(err)
		}
	}
	a.WaitMigration()
	if ref := a.cur.Load(); ref.idx != tierIndex(flat) || ref.built != 0 {
		t.Fatalf("serving %T built at %d, want the original flat tier", ref.idx, ref.built)
	}
	a.mu.Lock()
	migrating := a.migrating
	a.mu.Unlock()
	if migrating || a.Tier() != "flat" || a.Len() != 0 {
		t.Fatalf("after an empty snapshot: migrating %v, tier %s, len %d; want false, flat, 0", migrating, a.Tier(), a.Len())
	}
	v := unit(rng, dim)
	if err := a.Add(100, v); err != nil {
		t.Fatal(err)
	}
	if hits := a.Search(v, 1, 0.99); len(hits) != 1 || hits[0].ID != 100 {
		t.Fatalf("search after the aborted promotion = %v", hits)
	}
}
