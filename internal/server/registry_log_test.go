package server

// A tenant's log across evictions: each persist appends one committed
// batch of what changed (or the whole cache, when the log is not as this
// registry left it), revival restores exactly what was persisted, the
// log stays within twice its live bytes, two registries persisting one
// tenant leave one registry's state, and a crash at any point of an
// eviction revives the state before it or after it.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/store/faultfs"
	"repro/internal/vecmath"
)

// seededEncoder embeds a text as a unit vector drawn from a hash of the
// text and the current seed: bumping the seed is a model rollout.
type seededEncoder struct {
	dim  int
	seed atomic.Int64
}

func (e *seededEncoder) Encode(text string) []float32 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", e.seed.Load(), text)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	v := make([]float32, e.dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	vecmath.Normalize(v)
	return v
}
func (e *seededEncoder) Dim() int     { return e.dim }
func (e *seededEncoder) Name() string { return "seeded" }

func logFactory(enc *seededEncoder, capacity int) TenantFactory {
	return func(string) *core.Client {
		return core.New(core.Options{Encoder: enc, Tau: 0.9, TopK: 4, Capacity: capacity, FeedbackStep: 0.01})
	}
}

// tenantState is what a persist must carry across an eviction.
type tenantState struct {
	Entries map[int]entryState
	Tau     float32
	Version string
}

type entryState struct {
	Query, Response string
	Parent          int
	Vec             []uint32 // the embedding's bits
}

func stateOf(ten *Tenant) tenantState {
	c := ten.Client.Cache()
	s := tenantState{Entries: make(map[int]entryState), Tau: ten.Client.Tau(), Version: ten.ModelVersion()}
	for _, e := range c.Entries() {
		vec, _ := c.Vector(e.ID, nil)
		bits := make([]uint32, len(vec))
		for i, x := range vec {
			bits[i] = math.Float32bits(x)
		}
		s.Entries[e.ID] = entryState{e.Query, e.Response, e.Parent, bits}
	}
	return s
}

// coldState is what a tenant with no log activates with.
func coldState() tenantState {
	return tenantState{Entries: map[int]entryState{}, Tau: 0.9}
}

// churn teaches ten a cycle's worth of changes: fills (some chained to
// an earlier entry), which push a full cache into capacity evictions,
// and τ feedback.
func churn(t *testing.T, ten *Tenant, rng *rand.Rand, cycle int) {
	t.Helper()
	for i := 0; i < 1+rng.Intn(6); i++ {
		parent := cache.NoParent
		if entries := ten.Client.Cache().Entries(); len(entries) > 0 && rng.Intn(3) == 0 {
			parent = entries[rng.Intn(len(entries))].ID
		}
		if _, err := ten.Client.Insert(fmt.Sprintf("%s q%d.%d", ten.ID, cycle, i), fmt.Sprintf("r%d.%d", cycle, i), parent); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(2) == 0 {
		ten.Client.ReportFalseHit()
	} else {
		ten.Client.ReportMissedHit()
	}
}

// logWithinTwiceLive opens a tenant's log and checks its size.
func logWithinTwiceLive(t *testing.T, fsys store.FS, path string) {
	t.Helper()
	st, err := store.OpenFS(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if size, live := st.SizeOnDisk(), st.LiveBytes(); size > 2*live {
		t.Fatalf("log %s is %d bytes for %d live bytes", path, size, live)
	}
}

// TestEvictReviveCyclesRestoreTheCache: 50 evict/revive cycles of one
// tenant, at 64-d and 768-d, each with fills, capacity evictions and τ
// feedback. Every revival equals the cache as it was evicted, bit for
// bit, and after the first persist every persist appends only the
// changes.
func TestEvictReviveCyclesRestoreTheCache(t *testing.T) {
	for _, dim := range []int{64, 768} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			fs := faultfs.New()
			r, err := NewRegistry(RegistryConfig{
				Shards: 1, MaxTenants: 1, PersistDir: faultPersistDir, FS: fs, Logf: t.Logf,
				Factory: logFactory(&seededEncoder{dim: dim}, 24),
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(dim)))
			for cycle := 0; cycle < 50; cycle++ {
				ten := r.Get("alice")
				churn(t, ten, rng, cycle)
				if cycle%10 == 9 {
					ten.SetModelVersion(fmt.Sprintf("v%d", cycle))
				}
				want := stateOf(ten)
				ten.Release()
				r.Get("bob").Release() // evicts alice
				logWithinTwiceLive(t, fs, tenantSnapshotPath("alice"))
				ten = r.Get("alice") // revives alice, evicts bob
				if got := stateOf(ten); !reflect.DeepEqual(got, want) {
					t.Fatalf("cycle %d: revived\n%+v\nwant\n%+v", cycle, got, want)
				}
				if len(want.Entries) == 24 && cycle == 49 {
					t.Logf("cache full at capacity through the last cycle")
				}
				ten.Release()
			}
			s := r.Stats()
			// alice's and bob's first persists mirror the cache; every
			// later one appends the changes.
			if s.PersistRewrites != 2 || s.PersistAppends != 2*50-2 {
				t.Fatalf("persists: %d whole-cache, %d appends; want 2 and %d", s.PersistRewrites, s.PersistAppends, 2*50-2)
			}
			if s.Compactions == 0 {
				t.Fatal("50 cycles of churn never compacted the log")
			}
			t.Logf("%d appends, %d rewrites, %d compactions", s.PersistAppends, s.PersistRewrites, s.Compactions)
		})
	}
}

// TestReembedRewritesTheWholeCache: after a model rollout re-embeds a
// tenant, its next persist mirrors the whole cache, and revival returns
// the new vectors bit for bit.
func TestReembedRewritesTheWholeCache(t *testing.T) {
	fs := faultfs.New()
	enc := &seededEncoder{dim: 64}
	r, err := NewRegistry(RegistryConfig{Shards: 1, PersistDir: faultPersistDir, FS: fs, Factory: logFactory(enc, 0)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ten := r.Get("alice")
	churn(t, ten, rng, 0)
	ten.Release()
	if _, err := r.Drain("alice", 0); err != nil {
		t.Fatal(err)
	}
	ten = r.Get("alice")
	old := stateOf(ten)
	enc.seed.Add(1)
	if n, err := ten.Client.Reembed(); err != nil || n != len(old.Entries) {
		t.Fatalf("Reembed = %d, %v; want %d", n, err, len(old.Entries))
	}
	ten.SetModelVersion("v1")
	want := stateOf(ten)
	for id, e := range want.Entries {
		if reflect.DeepEqual(e.Vec, old.Entries[id].Vec) {
			t.Fatalf("entry %d kept its vector through the re-embed", id)
		}
	}
	ten.Release()
	before := r.Stats()
	if _, err := r.Drain("alice", 0); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.PersistRewrites != before.PersistRewrites+1 || s.PersistAppends != before.PersistAppends {
		t.Fatalf("the persist after a re-embed: stats %+v, before %+v; want one whole-cache persist", s, before)
	}
	ten = r.Get("alice")
	defer ten.Release()
	if got := stateOf(ten); !reflect.DeepEqual(got, want) {
		t.Fatalf("revived after a re-embed\n%+v\nwant\n%+v", got, want)
	}
}

// TestConcurrentPersistsLeaveOneRegistrysState: two registries over one
// persist dir revive the same tenant, teach it different things and
// drain it at once, 200 times. The lock orders the persists, the second
// finds the log changed and mirrors its whole cache, so the log revives
// to exactly one registry's tenant — never a mix of both batches.
func TestConcurrentPersistsLeaveOneRegistrysState(t *testing.T) {
	for _, name := range []string{"faultfs", "os"} {
		t.Run(name, func(t *testing.T) {
			var fsys store.FS = faultfs.New()
			dir := faultPersistDir
			if name == "os" {
				fsys, dir = store.OS, filepath.Join(t.TempDir(), "tenants")
			}
			enc := &seededEncoder{dim: 16}
			newReg := func() *Registry {
				r, err := NewRegistry(RegistryConfig{Shards: 1, PersistDir: dir, FS: fsys, Factory: logFactory(enc, 12)})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			regs := [2]*Registry{newReg(), newReg()}
			rng := rand.New(rand.NewSource(7))
			won := [2]int{}
			for iter := 0; iter < 200; iter++ {
				user := fmt.Sprintf("u%03d", iter%20)
				var wants [2]tenantState
				for i, r := range regs {
					ten := r.Get(user)
					churn(t, ten, rng, iter*2+i)
					ten.Client.SetTau(float32(i+1) / 4)
					wants[i] = stateOf(ten)
					ten.Release()
				}
				var wg sync.WaitGroup
				for _, r := range regs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := r.Drain(user, 0); err != nil {
							t.Error(err)
						}
					}()
				}
				wg.Wait()
				ten := newReg().Get(user)
				got := stateOf(ten)
				ten.Release()
				switch {
				case reflect.DeepEqual(got, wants[0]):
					won[0]++
				case reflect.DeepEqual(got, wants[1]):
					won[1]++
				default:
					t.Fatalf("iteration %d: the log revived to neither registry's tenant\n got %+v\nwant %+v\n  or %+v", iter, got, wants[0], wants[1])
				}
			}
			t.Logf("registry 0 persisted last %d times, registry 1 %d times", won[0], won[1])
		})
	}
}

// tornCuts is where a crash may cut a log's unsynced suffix, which
// starts at a record boundary: at every record boundary (the frames of
// a batch included), one byte into each record, halfway through each,
// and nowhere.
func tornCuts(pending []byte) []int {
	cuts := []int{}
	for off := 0; off+9 <= len(pending); {
		end := off + 9 + int(binary.LittleEndian.Uint32(pending[off+1:])) + int(binary.LittleEndian.Uint32(pending[off+5:])) + 4
		cuts = append(cuts, off, off+1, (off+end)/2)
		off = end
	}
	return append(cuts, len(pending))
}

// TestEvictionCrashPointsReviveBeforeOrAfter: a power loss at any point
// of an eviction's persist — its open, its batch torn at every record
// boundary and inside every record, its syncs, and a compaction after
// it — revives the tenant as it was
// persisted before that eviction or as it was evicted, never a mix.
// The evictions cover a tenant's first persist, appends of changes, and
// persists that compact.
func TestEvictionCrashPointsReviveBeforeOrAfter(t *testing.T) {
	fs := faultfs.New()
	enc := &seededEncoder{dim: 16}
	cfg := RegistryConfig{Shards: 1, MaxTenants: 1, PersistDir: faultPersistDir, FS: fs, Factory: logFactory(enc, 10)}
	r, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := tenantSnapshotPath("alice")
	rng := rand.New(rand.NewSource(3))
	before := coldState()
	checked := 0
	for cycle := 0; cycle < 12; cycle++ {
		ten := r.Get("alice")
		churn(t, ten, rng, cycle)
		after := stateOf(ten)
		ten.Release()
		from := len(fs.CrashPoints())
		fs.Capture(true)
		r.Get("bob").Release() // evicts alice
		fs.Capture(false)
		cps := fs.CrashPoints()[from:]
		for _, cp := range cps {
			pending := len(cp.Files[path].Pending)
			for _, cut := range tornCuts(cp.Files[path].Pending) {
				rcfg := cfg
				rcfg.FS = faultfs.Restore(cp, map[string]int{path: cut})
				rr, err := NewRegistry(rcfg)
				if err != nil {
					t.Fatal(err)
				}
				ten := rr.Get("alice")
				got := stateOf(ten)
				ten.Release()
				if !reflect.DeepEqual(got, before) && !reflect.DeepEqual(got, after) {
					t.Fatalf("cycle %d, crash at seq %d, %d of %d unsynced bytes kept: revived\n%+v\nbefore\n%+v\nafter\n%+v",
						cycle, cp.Seq, cut, pending, got, before, after)
				}
				checked++
			}
		}
		before = after
		r.Get("alice").Release() // revives alice, evicts bob
	}
	s := r.Stats()
	if s.PersistAppends == 0 || s.PersistRewrites == 0 || s.Compactions == 0 {
		t.Fatalf("evictions did not cover appends, whole-cache persists and compactions: %+v", s)
	}
	t.Logf("%d crash recoveries checked; %+v", checked, s)
}

// TestSweepRemovesStaleCompactionTemps: a crash inside Compact leaves
// <log>.compact behind, and an older release's persist left
// <log>.tmp-*; a registry opening the dir removes both once they are
// stale, and leaves young temps (a live peer's, on a shared dir) and
// logs alone.
func TestSweepRemovesStaleCompactionTemps(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-2 * time.Hour)
	files := map[string]struct{ young, survives bool }{
		"616c696365.cache":            {false, true},
		"616c696365.cache.compact":    {false, false},
		"626f62.cache.tmp-12-3":       {false, false},
		"6361726f6c.cache.compact":    {true, true},
		"6361726f6c.cache.quarantine": {false, true},
	}
	for name, f := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if !f.young {
			if err := os.Chtimes(path, old, old); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := NewRegistry(RegistryConfig{PersistDir: dir, Factory: testFactory(nil)}); err != nil {
		t.Fatal(err)
	}
	for name, f := range files {
		if _, err := os.Stat(filepath.Join(dir, name)); (err == nil) != f.survives {
			t.Errorf("%s: present = %v after the sweep, want %v", name, err == nil, f.survives)
		}
	}
}
