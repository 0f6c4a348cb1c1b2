package index

import (
	"math"
	"math/rand"
	"sort"
	"sync"
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

// TestAdaptivePromotesAtFillCount pins when the tier changes: the Add
// that takes Flat past FlatMax returns on an IVF built from every row,
// and the Add that takes that IVF past regrowFactor × its build count
// returns on a regrown IVF built from every row then held.
func TestAdaptivePromotesAtFillCount(t *testing.T) {
	const dim, flatMax = 8, 50
	rng := rand.New(rand.NewSource(31))
	a := NewAdaptive(dim, AdaptiveConfig{FlatMax: flatMax})
	add := func(id int) {
		if err := a.Add(id, unit(rng, dim)); err != nil {
			t.Fatalf("Add(%d): %v", id, err)
		}
	}
	for id := 0; id < flatMax; id++ {
		add(id)
	}
	if tier := a.Tier(); tier != "flat" {
		t.Fatalf("at FlatMax rows: tier = %q, want flat", tier)
	}
	add(flatMax)
	if tier, built := a.Tier(), a.cur.Load().built; tier != "ivf" || built != flatMax+1 {
		t.Fatalf("after row %d: tier %q built at %d, want ivf built at %d", flatMax+1, tier, built, flatMax+1)
	}
	first := a.cur.Load().built
	for id := flatMax + 1; id < regrowFactor*first; id++ {
		add(id)
	}
	if built := a.cur.Load().built; built != first {
		t.Fatalf("at %d rows: built at %d, want still %d", a.Len(), built, first)
	}
	add(regrowFactor * first)
	if built, n := a.cur.Load().built, a.Len(); built != n || n != regrowFactor*first+1 {
		t.Fatalf("after row %d: built at %d with %d rows, want both %d", regrowFactor*first+1, built, n, regrowFactor*first+1)
	}
}

// TestAdaptiveRegrowUnderRacingWrites bulk-loads an Adaptive far past
// regrowFactor × the rows its IVF was built from, removing rows as it
// goes, while searchers race the writes and every tier swap. Afterwards
// the tier must be a regrown IVF, the ID set must match an oracle
// exactly, and every live vector must be its own top hit. Run under
// -race this also exercises the lock-free tier swap.
func TestAdaptiveRegrowUnderRacingWrites(t *testing.T) {
	const dim, flatMax, total = 8, 150, 3000
	rng := rand.New(rand.NewSource(23))
	a := NewAdaptive(dim, AdaptiveConfig{FlatMax: flatMax})
	probe := unit(rng, dim)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a.Search(probe, 5, -1)
			}
		}()
	}
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
	close(stop)
	wg.Wait()
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
// vectors in lockstep and requires bit-identical Search results after
// every Add, through the promotion and each regrowth: a build happens at
// a fill count, and a regrowth samples its rows in ID order, never in
// the map order of the IVF it replaces.
func TestAdaptiveRegrowDeterministic(t *testing.T) {
	const dim, flatMax, total = 16, 150, 2000
	rng := rand.New(rand.NewSource(5))
	corpus := clustered(rng, total, 24, dim, 0.3)
	x := NewAdaptive(dim, AdaptiveConfig{FlatMax: flatMax})
	y := NewAdaptive(dim, AdaptiveConfig{FlatMax: flatMax})
	for id, v := range corpus {
		for _, a := range []*Adaptive{x, y} {
			if err := a.Add(id, v); err != nil {
				t.Fatalf("Add(%d): %v", id, err)
			}
		}
		q := corpus[rng.Intn(id+1)]
		if id%2 == 1 {
			q = unit(rng, dim)
		}
		hx, hy := x.Search(q, 10, -1), y.Search(q, 10, -1)
		if len(hx) != len(hy) {
			t.Fatalf("after row %d: %d hits vs %d", id, len(hx), len(hy))
		}
		for j := range hx {
			if hx[j] != hy[j] {
				t.Fatalf("after row %d, hit %d: %+v vs %+v", id, j, hx[j], hy[j])
			}
		}
	}
	if built := x.cur.Load().built; built <= flatMax+1 {
		t.Fatalf("serving IVF built at %d entries: no regrowth", built)
	}
}

// BenchmarkAdaptivePromote768 times the Add that takes a 768-d Adaptive
// past DefaultFlatMax: it trains the first IVF on 1,024 rows, adds all
// 1,025 to it and swaps it in, under the writer lock. In a serving
// tenant that Add runs inside cache.Put, so this is how long the
// tenant's lookups wait once per promotion. Rows are loosely clustered
// as sentence embeddings are.
func BenchmarkAdaptivePromote768(b *testing.B) {
	const dim = 768
	rng := rand.New(rand.NewSource(13))
	rows := clustered(rng, DefaultFlatMax+1, 16, dim, 1.2/math.Sqrt(dim))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := NewAdaptive(dim, AdaptiveConfig{})
		for id, v := range rows[:DefaultFlatMax] {
			if err := a.Add(id, v); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := a.Add(DefaultFlatMax, rows[DefaultFlatMax]); err != nil {
			b.Fatal(err)
		}
		if a.Tier() != "ivf" {
			b.Fatalf("tier %q after the crossing Add, want ivf", a.Tier())
		}
	}
}
