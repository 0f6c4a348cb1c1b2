package index

import (
	"math/rand"
	"sort"
	"testing"
)

// TestAdaptiveThresholdNormalization pins the NewAdaptive threshold
// hardening: unset thresholds are the calibrated DefaultThresholds, the
// IVFMax default must never silently disable the IVF tier just because
// FlatMax was raised past it, and negative IVFMax is normalised to the
// canonical skip-IVF marker.
func TestAdaptiveThresholdNormalization(t *testing.T) {
	const dim = 8
	defFlat, defIVF := DefaultThresholds(dim)
	if defFlat < 1024 || defFlat > 1<<17 || defIVF < 4*defFlat {
		t.Fatalf("DefaultThresholds(%d) = (%d, %d), outside the calibrated band [1024, 128k] with IVFMax ≥ 4·FlatMax", dim, defFlat, defIVF)
	}
	cases := []struct {
		name            string
		cfg             AdaptiveConfig
		flatMax, ivfMax int
	}{
		{"defaults", AdaptiveConfig{}, defFlat, defIVF},
		{"flatmax-below-default-ivfmax", AdaptiveConfig{FlatMax: defIVF - 1}, defIVF - 1, defIVF},
		{"flatmax-at-default-ivfmax", AdaptiveConfig{FlatMax: defIVF}, defIVF, 4 * defIVF},
		{"flatmax-past-default-ivfmax", AdaptiveConfig{FlatMax: defIVF + 1}, defIVF + 1, 4 * (defIVF + 1)},
		{"explicit-skip-equal", AdaptiveConfig{FlatMax: 150, IVFMax: 150}, 150, 150},
		{"explicit-skip-below", AdaptiveConfig{FlatMax: 150, IVFMax: 10}, 150, 10},
		{"negative-skip", AdaptiveConfig{FlatMax: 150, IVFMax: -1}, 150, 150},
		{"negative-skip-default-flatmax", AdaptiveConfig{IVFMax: -7}, defFlat, defFlat},
		{"full-ladder", AdaptiveConfig{FlatMax: 150, IVFMax: 500}, 150, 500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAdaptive(dim, tc.cfg)
			flatMax, ivfMax := a.Thresholds()
			if flatMax != tc.flatMax || ivfMax != tc.ivfMax {
				t.Fatalf("Thresholds() = (%d, %d), want (%d, %d)", flatMax, ivfMax, tc.flatMax, tc.ivfMax)
			}
		})
	}
	// Calibration runs once per process: a second zero-config index is
	// built from the kept measurement, not a fresh one. Two measurements
	// agreeing to the last bit of a float64 nanosecond mean do not
	// happen, and at 64-d FlatMax is far from its clamps.
	t.Run("calibrated-once", func(t *testing.T) {
		DefaultThresholds(64)
		kept := calibration.ns
		if kept <= 0 {
			t.Fatalf("no calibration kept after DefaultThresholds: %v", kept)
		}
		for i := 0; i < 2; i++ {
			flatMax, ivfMax := NewAdaptive(64, AdaptiveConfig{}).Thresholds()
			if calibration.ns != kept {
				t.Fatalf("NewAdaptive #%d recalibrated: %v → %v ns", i+1, kept, calibration.ns)
			}
			if wf, wi := TierThresholds(kept, 64); flatMax != wf || ivfMax != wi {
				t.Fatalf("NewAdaptive #%d thresholds (%d, %d), want TierThresholds of the kept measurement (%d, %d)", i+1, flatMax, ivfMax, wf, wi)
			}
		}
	})
}

// TestAdaptiveSkipIVFBoundary drives the skip-IVF mode at the exact
// boundary count: FlatMax entries stay flat, one more promotes straight
// to HNSW with no intermediate IVF tier.
func TestAdaptiveSkipIVFBoundary(t *testing.T) {
	const dim, flatMax = 8, 150
	rng := rand.New(rand.NewSource(11))
	a := NewAdaptive(dim, AdaptiveConfig{
		FlatMax: flatMax,
		IVFMax:  -1, // skip IVF
		HNSW:    HNSWConfig{M: 8, EfConstruction: 60, EfSearch: 80, Seed: 7},
	})
	for id := 0; id < flatMax; id++ {
		if err := a.Add(id, unit(rng, dim)); err != nil {
			t.Fatalf("Add(%d): %v", id, err)
		}
	}
	a.WaitMigration()
	if tier := a.Tier(); tier != "flat" {
		t.Fatalf("at exactly FlatMax entries: tier = %q, want flat", tier)
	}
	if err := a.Add(flatMax, unit(rng, dim)); err != nil {
		t.Fatalf("Add(%d): %v", flatMax, err)
	}
	a.WaitMigration()
	if tier := a.Tier(); tier != "hnsw" {
		t.Fatalf("one past FlatMax in skip-IVF mode: tier = %q, want hnsw", tier)
	}
	if n := a.Len(); n != flatMax+1 {
		t.Fatalf("Len after promotion = %d, want %d", n, flatMax+1)
	}
}

// TestAdaptiveDoublePromotionChain is the satellite regression for the
// promotion state machine: a burst of Adds (and Removes) landing while
// the Flat→IVF migration is in flight pushes the entry count past
// IVFMax at the exact boundary, so the chained IVF→HNSW promotion fires
// from inside migrate's under-lock tail. Every journaled write must
// survive both hops — the final ID set is compared exactly against an
// oracle. Run under -race this also exercises journal/migrate
// synchronisation.
func TestAdaptiveDoublePromotionChain(t *testing.T) {
	const dim, flatMax, ivfMax = 8, 150, 500
	rng := rand.New(rand.NewSource(23))
	a := NewAdaptive(dim, AdaptiveConfig{
		FlatMax: flatMax,
		IVFMax:  ivfMax,
		IVF:     IVFConfig{NList: 12, NProbe: 8, Seed: 7},
		HNSW:    HNSWConfig{M: 8, EfConstruction: 60, EfSearch: 80, Seed: 7},
	})
	oracle := map[int][]float32{}
	add := func(id int) {
		v := unit(rng, dim)
		if err := a.Add(id, v); err != nil {
			t.Fatalf("Add(%d): %v", id, err)
		}
		oracle[id] = v
	}
	// Cross FlatMax: the IVF build kicks off in the background.
	for id := 0; id <= flatMax; id++ {
		add(id)
	}
	// Burst while (likely) migrating: remove a mix of snapshot-era and
	// burst-era IDs, and add exactly enough to land one past IVFMax so
	// the chained promotion triggers at the boundary. The interleaving
	// with the background build is timing-dependent — journal replay and
	// direct post-swap writes are both valid paths and both must
	// preserve the ID set.
	for id := flatMax + 1; len(oracle) <= ivfMax; id++ {
		add(id)
		if id%17 == 0 {
			victim := id - 13
			a.Remove(victim)
			delete(oracle, victim)
		}
	}
	a.WaitMigration()
	if tier := a.Tier(); tier != "hnsw" {
		t.Fatalf("after double promotion: tier = %q, want hnsw (len %d)", tier, a.Len())
	}
	if n := a.Len(); n != len(oracle) {
		t.Fatalf("Len = %d, want %d", n, len(oracle))
	}
	got := a.idList()
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
	// The surviving entries must be searchable: exact self-hit for a
	// sample (HNSW is approximate, so probe with a generous k).
	misses := 0
	for id, v := range oracle {
		if id%50 != 0 {
			continue
		}
		found := false
		for _, h := range a.Search(v, 10, 0.99) {
			if h.ID == id {
				found = true
				break
			}
		}
		if !found {
			misses++
		}
	}
	if misses > 1 {
		t.Fatalf("%d sampled self-lookups missed after promotion chain", misses)
	}
}
