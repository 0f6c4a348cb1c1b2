package server

// The registry's eviction against an LRU oracle: the container/list
// policy the registry used before its use tick, replayed step by step
// from one seeded sequence of Gets, held and released references,
// drains, overflowing activations and disk-full episodes (with the
// evict-retry backoff elapsing on a virtual clock).

import (
	"container/list"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/store/faultfs"
)

// lruOracle models one registry: per shard a list with the most recently
// used tenant in front, the victim the first unreferenced tenant from
// the back, and the same backoff after a failed evict persist.
type lruOracle struct {
	perShard int
	shardFor func(string) int
	clock    sim.Clock
	shards   map[int]*oracleShard
	diskFull bool

	persisted []string // successful persists (evictions and drains), in order
	failed    []string // victims whose evict persist failed, in order

	activations, evictions, evictErrors, drains int64
	// Eviction attempts that found every tenant referenced, and those
	// among them that cleared a failed persist's backoff.
	allPinned, pinnedInBackoff int
}

type oracleShard struct {
	lru          *list.List // values are *oracleTenant
	byID         map[string]*list.Element
	evictFails   int
	evictRetryAt time.Time
}

type oracleTenant struct {
	id   string
	refs int
}

func (o *lruOracle) shard(id string) *oracleShard {
	n := o.shardFor(id)
	sh, ok := o.shards[n]
	if !ok {
		sh = &oracleShard{lru: list.New(), byID: make(map[string]*list.Element)}
		o.shards[n] = sh
	}
	return sh
}

func (o *lruOracle) get(id string) {
	sh := o.shard(id)
	if el, ok := sh.byID[id]; ok {
		sh.lru.MoveToFront(el)
		el.Value.(*oracleTenant).refs++
		return
	}
	sh.byID[id] = sh.lru.PushFront(&oracleTenant{id: id, refs: 1})
	o.activations++
	for sh.lru.Len() > o.perShard {
		if !sh.evictRetryAt.IsZero() && o.clock.Now().Before(sh.evictRetryAt) {
			break
		}
		before, fails := sh.lru.Len(), sh.evictFails
		if !o.evict(sh) {
			o.evictErrors++
			backoff := min(evictBackoffBase<<min(sh.evictFails, 10), evictBackoffMax)
			sh.evictFails++
			sh.evictRetryAt = o.clock.Now().Add(backoff)
			break
		}
		sh.evictFails = 0
		sh.evictRetryAt = time.Time{}
		if sh.lru.Len() == before {
			o.allPinned++
			if fails > 0 {
				o.pinnedInBackoff++
			}
			break
		}
	}
}

// evict reports false when the victim's persist fails.
func (o *lruOracle) evict(sh *oracleShard) bool {
	for el := sh.lru.Back(); el != nil; el = el.Prev() {
		t := el.Value.(*oracleTenant)
		if t.refs > 0 {
			continue
		}
		if o.diskFull {
			o.failed = append(o.failed, t.id)
			return false
		}
		o.persisted = append(o.persisted, t.id)
		sh.lru.Remove(el)
		delete(sh.byID, t.id)
		o.evictions++
		return true
	}
	return true
}

func (o *lruOracle) release(id string) { o.shard(id).byID[id].Value.(*oracleTenant).refs-- }

// drain mirrors Registry.Drain with no wait: it returns whether id was
// resident and the outcome ("", "busy" or "persist failed").
func (o *lruOracle) drain(id string) (bool, string) {
	sh := o.shard(id)
	el, ok := sh.byID[id]
	switch {
	case !ok:
		return false, ""
	case el.Value.(*oracleTenant).refs > 0:
		return true, "busy"
	case o.diskFull:
		return true, "persist failed"
	}
	o.persisted = append(o.persisted, id)
	sh.lru.Remove(el)
	delete(sh.byID, id)
	o.drains++
	return true, ""
}

func (o *lruOracle) resident() []string {
	var ids []string
	for _, sh := range o.shards {
		for id := range sh.byID {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// syncLog is a store.FS that records, in order, the tenants whose
// persist completed: the sync of a tenant's log after its batch, the
// persist's durability barrier. On a full disk the batch's write fails
// first and the sync is never reached. Syncs of other files (a
// compaction's rewrite) are not persists and are not recorded.
type syncLog struct {
	store.FS
	ids []string
}

func (l *syncLog) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f, err := l.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &syncLogFile{File: f, log: l, name: name}, nil
}

type syncLogFile struct {
	store.File
	log  *syncLog
	name string
}

func (f *syncLogFile) Sync() error {
	err := f.File.Sync()
	if name, ok := strings.CutSuffix(filepath.Base(f.name), ".cache"); ok && err == nil {
		id, herr := hex.DecodeString(name)
		if herr != nil {
			return fmt.Errorf("syncLog: log %s is not a hex user ID: %w", f.name, herr)
		}
		f.log.ids = append(f.log.ids, string(id))
	}
	return err
}

func TestRegistryVictimsMatchLRUOracle(t *testing.T) {
	pinnedInBackoff := 0
	for _, tc := range []struct{ shards, maxTenants, users int }{
		{1, 4, 12},
		{4, 10, 24},
		{4, 4, 10}, // one tenant a shard: fully pinned shards in backoff
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/max=%d/seed=%d", tc.shards, tc.maxTenants, seed), func(t *testing.T) {
				pinnedInBackoff += replayAgainstOracle(t, tc.shards, tc.maxTenants, tc.users, seed, 2000).pinnedInBackoff
			})
		}
	}
	if pinnedInBackoff == 0 {
		t.Error("no sequence found a fully pinned shard while backing off")
	}
}

func replayAgainstOracle(t *testing.T, shards, maxTenants, users int, seed int64, steps int) *lruOracle {
	fs := faultfs.New()
	clk := sim.NewVirtual()
	persists := &syncLog{FS: fs}
	var failed []string // victims named by the registry's evict-failure log
	r, err := NewRegistry(RegistryConfig{
		Shards: shards, MaxTenants: maxTenants, PersistDir: faultPersistDir,
		Factory: testFactory(nil), Clock: clk, FS: persists,
		Logf: func(format string, args ...any) {
			msg := fmt.Sprintf(format, args...)
			if !strings.Contains(msg, "eviction persist failed") {
				return
			}
			for i := 0; i < users; i++ {
				if id := fmt.Sprintf("u%02d", i); strings.Contains(msg, strconv.Quote(id)) {
					failed = append(failed, id)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := &lruOracle{perShard: r.perShard, shardFor: r.ShardFor, clock: clk, shards: make(map[int]*oracleShard)}

	rng := rand.New(rand.NewSource(seed))
	var held []*Tenant
	for step := 0; step < steps; step++ {
		id := fmt.Sprintf("u%02d", rng.Intn(users))
		var op string
		switch p := rng.Intn(100); {
		case p < 45:
			op = "get " + id
			r.Get(id).Release()
			o.get(id)
			o.release(id)
		case p < 60 && len(held) <= maxTenants:
			op = "hold " + id
			held = append(held, r.Get(id))
			o.get(id)
		case p < 75 && len(held) > 0:
			i := rng.Intn(len(held))
			op = "release " + held[i].ID
			o.release(held[i].ID)
			held[i].Release()
			held = slices.Delete(held, i, i+1)
		case p < 83:
			op = "drain " + id
			was, err := r.Drain(id, 0)
			wantWas, want := o.drain(id)
			if was != wantWas || (err == nil) != (want == "") || (want == "busy") != (err == ErrTenantBusy) {
				t.Fatalf("step %d %s: Drain = %v, %v; oracle %v, %q", step, op, was, err, wantWas, want)
			}
		case p < 90:
			o.diskFull = !o.diskFull
			op = fmt.Sprintf("disk full=%v", o.diskFull)
			if o.diskFull {
				fs.SetSpace(0)
			} else {
				fs.SetSpace(-1)
			}
		default:
			d := time.Duration(rng.Intn(400)) * time.Millisecond
			op = fmt.Sprintf("advance %v", d)
			clk.Advance(d)
		}

		ids := r.IDs()
		slices.Sort(ids)
		if want := o.resident(); !slices.Equal(ids, want) {
			t.Fatalf("step %d %s: resident %v, oracle %v", step, op, ids, want)
		}
		if !slices.Equal(persists.ids, o.persisted) {
			t.Fatalf("step %d %s: persisted %v, oracle %v", step, op, persists.ids, o.persisted)
		}
		if !slices.Equal(failed, o.failed) {
			t.Fatalf("step %d %s: failed evict victims %v, oracle %v", step, op, failed, o.failed)
		}
		for n, sh := range o.shards {
			if rs := r.shards[n]; rs.evictFails != sh.evictFails || !rs.evictRetryAt.Equal(sh.evictRetryAt) {
				t.Fatalf("step %d %s: shard %d backoff after %d fails until %v, oracle %d until %v",
					step, op, n, rs.evictFails, rs.evictRetryAt, sh.evictFails, sh.evictRetryAt)
			}
		}
		st := r.Stats()
		if st.Activations != o.activations || st.Evictions != o.evictions || st.EvictErrors != o.evictErrors || st.Drains != o.drains {
			t.Fatalf("step %d %s: stats %+v, oracle activations %d evictions %d evict errors %d drains %d",
				step, op, st, o.activations, o.evictions, o.evictErrors, o.drains)
		}
	}
	if o.evictions == 0 || o.evictErrors == 0 || o.drains == 0 || o.allPinned == 0 {
		t.Fatalf("sequence too tame: %d evictions, %d evict errors, %d drains, %d fully pinned shards",
			o.evictions, o.evictErrors, o.drains, o.allPinned)
	}
	t.Logf("%d steps: %d activations, %d evictions, %d evict errors, %d drains, %d fully pinned shards (%d in backoff)",
		steps, o.activations, o.evictions, o.evictErrors, o.drains, o.allPinned, o.pinnedInBackoff)
	for _, tn := range held {
		tn.Release()
	}
	return o
}
