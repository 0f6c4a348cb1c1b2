package server

// Registry persistence-failure policy, driven through the faultfs seam:
// an eviction that cannot persist keeps the tenant resident and retries
// with backoff (adapted state is never dropped unpersisted), a corrupt
// snapshot is quarantined and the tenant served cold, and log damage
// repaired at reload is surfaced through the registry's recovery
// counters.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/store/faultfs"
)

const faultPersistDir = "tenants"

// tenantSnapshotPath mirrors Registry.persistPath for assertions.
func tenantSnapshotPath(userID string) string {
	return filepath.Join(faultPersistDir, hex.EncodeToString([]byte(userID))+".cache")
}

// teach inserts one canonical entry so the tenant has state worth
// persisting, and returns after releasing the tenant.
func teach(t *testing.T, r *Registry, userID string) {
	t.Helper()
	ten := r.Get(userID)
	defer ten.Release()
	if _, err := ten.Client.Insert("what is "+userID, "answer for "+userID, cache.NoParent); err != nil {
		t.Fatalf("Insert(%q): %v", userID, err)
	}
}

func TestEvictPersistFailureKeepsTenantAndRetries(t *testing.T) {
	fs := faultfs.New()
	clk := sim.NewVirtual()
	r, err := NewRegistry(RegistryConfig{
		Shards:     1,
		MaxTenants: 1,
		PersistDir: faultPersistDir,
		Factory:    testFactory(nil),
		Clock:      clk,
		FS:         fs,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	teach(t, r, "alice")

	// The disk fills: activating bob wants to evict alice, whose persist
	// fails. Alice must stay resident — her adapted state is not dropped.
	fs.SetSpace(0)
	bob := r.Get("bob")
	bob.Release()
	if got := r.Resident(); got != 2 {
		t.Fatalf("Resident() = %d after failed eviction, want 2 (victim retained)", got)
	}
	if s := r.Stats(); s.EvictErrors != 1 || s.Evictions != 0 {
		t.Fatalf("stats after failed eviction: %+v", s)
	}

	// Within the backoff window further Gets do not re-attempt the
	// failing persist.
	r.Get("carol")
	if s := r.Stats(); s.EvictErrors != 1 {
		t.Fatalf("eviction retried inside backoff window: %+v", s)
	}

	// Space frees and the backoff elapses: the next activation drains
	// the over-bound shard back down, and the victims' snapshots land.
	fs.AddSpace(1 << 26)
	clk.Advance(time.Minute)
	r.Get("dave")
	if got := r.Resident(); got > 2 {
		t.Fatalf("Resident() = %d after space freed, want <= 2", got)
	}
	if s := r.Stats(); s.Evictions == 0 {
		t.Fatalf("no eviction after space freed: %+v", s)
	}
	if _, err := fs.ReadFile(tenantSnapshotPath("alice")); err != nil {
		t.Fatalf("alice's snapshot missing after retry: %v", err)
	}
}

func TestCorruptSnapshotQuarantinedAndServedCold(t *testing.T) {
	fs := faultfs.New()

	// Craft a structurally valid store whose cache payload is garbage:
	// reload opens it fine, then chokes decoding the entry.
	st, err := store.OpenFS(fs, tenantSnapshotPath("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("entry/0", []byte("not a gob stream")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	r, err := NewRegistry(RegistryConfig{
		Shards:     1,
		PersistDir: faultPersistDir,
		Factory:    testFactory(nil),
		FS:         fs,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Activation must serve the tenant cold, not fail the request.
	ten := r.Get("alice")
	if res := ten.Client.Lookup("anything", nil); res.Hit {
		t.Fatalf("cold tenant lookup unexpectedly hit: %+v", res)
	}
	ten.Release()

	s := r.Stats()
	if s.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1 (stats %+v)", s.Quarantines, s)
	}
	if s.Reloads != 0 {
		t.Fatalf("corrupt snapshot counted as reload: %+v", s)
	}
	if _, err := fs.ReadFile(tenantSnapshotPath("alice") + ".quarantine"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := fs.ReadFile(tenantSnapshotPath("alice")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt snapshot still in place: %v", err)
	}

	// The tenant persists and revives normally from here on.
	teach(t, r, "alice")
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	r2, err := NewRegistry(RegistryConfig{
		Shards: 1, PersistDir: faultPersistDir, Factory: testFactory(nil), FS: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	ten2 := r2.Get("alice")
	defer ten2.Release()
	if res := ten2.Client.Lookup("what is alice", nil); !res.Hit {
		t.Fatalf("revived tenant lost its entry: %+v", res)
	}
	if s := r2.Stats(); s.Reloads != 1 || s.Quarantines != 0 {
		t.Fatalf("stats after healthy revive: %+v", s)
	}
}

// TestLegacyGobSnapshotRevivesWarm is the upgrade path at the registry: a
// snapshot whose entries are gob streams (what every release before the
// binary entry format wrote) is a reload, not a quarantine, and the next
// persist rewrites it in the current format: the log then holds no
// legacy record, though the cache's entries are the ones it read.
func TestLegacyGobSnapshotRevivesWarm(t *testing.T) {
	fs := faultfs.New()
	st, err := store.OpenFS(fs, tenantSnapshotPath("alice"))
	if err != nil {
		t.Fatal(err)
	}
	// The legacy schema, spelled out: gob matches struct fields by name.
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(struct {
		ID        int
		Query     string
		Response  string
		Embedding []float32
		Parent    int
	}{0, "what is alice", "answer for alice", (&stubEncoder{dim: 16}).embed("what is alice"), cache.NoParent}); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("entry/0", legacy.Bytes()); err != nil {
		t.Fatal(err)
	}
	st.Close()

	cfg := RegistryConfig{Shards: 1, PersistDir: faultPersistDir, Factory: testFactory(nil), FS: fs, Logf: t.Logf}
	for pass, want := range []string{"legacy gob", "rewritten"} {
		r, err := NewRegistry(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ten := r.Get("alice")
		if res := ten.Client.Lookup("what is alice", nil); !res.Hit || res.Response != "answer for alice" {
			t.Fatalf("pass %d (%s snapshot): tenant revived cold: %+v", pass, want, res)
		}
		ten.Release()
		if s := r.Stats(); s.Reloads != 1 || s.Quarantines != 0 {
			t.Fatalf("pass %d (%s snapshot): stats %+v, want 1 reload and no quarantine", pass, want, s)
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
		st, err := store.OpenFS(fs, tenantSnapshotPath("alice"))
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range st.Keys() {
			if raw, err := st.Get(key); err != nil || strings.HasPrefix(key, "entry/") && raw[0] != 0x81 {
				t.Fatalf("pass %d: after the persist, record %s is %q, %v; want the current entry format", pass, key, raw, err)
			}
		}
		st.Close()
	}
}

func TestReloadSurfacesRepairedDamage(t *testing.T) {
	fs := faultfs.New()
	r, err := NewRegistry(RegistryConfig{
		Shards: 1, PersistDir: faultPersistDir, Factory: testFactory(nil), FS: fs, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	teach(t, r, "alice")
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	// A crash tears a trailing write onto the snapshot.
	f, err := fs.OpenFile(tenantSnapshotPath("alice"), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 9, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r2, err := NewRegistry(RegistryConfig{
		Shards: 1, PersistDir: faultPersistDir, Factory: testFactory(nil), FS: fs, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ten := r2.Get("alice")
	defer ten.Release()
	if res := ten.Client.Lookup("what is alice", nil); !res.Hit {
		t.Fatalf("repaired tenant lost its entry: %+v", res)
	}
	s := r2.Stats()
	if s.RecoveredTruncations != 1 {
		t.Fatalf("RecoveredTruncations = %d, want 1 (stats %+v)", s.RecoveredTruncations, s)
	}
	if s.Quarantines != 0 {
		t.Fatalf("repairable damage quarantined: %+v", s)
	}
}

// activationLog is a TenantHooks that records each activated tenant's
// model version as the hook sees it.
type activationLog struct{ seen []string }

func (l *activationLog) TenantActivated(t *Tenant) {
	l.seen = append(l.seen, t.ID+"="+t.ModelVersion())
}

// TestRevivedTenantKeepsModelVersion: a tenant's model-version stamp is
// persisted with its cache and restored before the activation hook runs,
// both from a snapshot the registry wrote and from one whose τ and
// model-version records were written directly, as snapshots were when
// the version reached the store through a hook. A fresh tenant has no
// stamp.
func TestRevivedTenantKeepsModelVersion(t *testing.T) {
	fs := faultfs.New()
	hooks := &activationLog{}
	r, err := NewRegistry(RegistryConfig{Shards: 1, PersistDir: faultPersistDir, Factory: testFactory(nil), FS: fs, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	teach(t, r, "stamped")
	ten := r.Get("stamped")
	ten.SetModelVersion("v1")
	ten.Release()
	if ok, err := r.Drain("stamped", 0); !ok || err != nil {
		t.Fatalf("Drain: resident=%v err=%v", ok, err)
	}
	ten = r.Get("stamped")
	if got := ten.ModelVersion(); got != "v1" {
		t.Errorf("revived tenant's model version = %q, want v1", got)
	}
	if res := ten.Client.Lookup("what is stamped", nil); !res.Hit {
		t.Error("revived tenant lost its cache")
	}
	ten.Release()

	st, err := store.OpenFS(fs, tenantSnapshotPath("written"))
	if err != nil {
		t.Fatal(err)
	}
	tau := binary.LittleEndian.AppendUint32(nil, math.Float32bits(0.9))
	if err := st.Put("meta/tau", tau); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("meta/modelver", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ten = r.Get("written")
	if got, tau := ten.ModelVersion(), ten.Client.Tau(); got != "v0" || tau != 0.9 {
		t.Errorf("tenant revived from directly written records: model version %q, τ %v; want v0, 0.9", got, tau)
	}
	ten.Release()

	ten = r.Get("fresh")
	if got := ten.ModelVersion(); got != "" {
		t.Errorf("fresh tenant's model version = %q, want none", got)
	}
	ten.Release()
	if want := []string{"stamped=", "stamped=v1", "written=v0", "fresh="}; !slices.Equal(hooks.seen, want) {
		t.Errorf("activation hook saw %v, want %v", hooks.seen, want)
	}
}

// TestFlushOrderFromSeed: Flush persists a shard's tenants in ID order,
// so two registries holding the same tenants write their snapshots in
// one order, flush after flush. In map order the logs differ on almost
// every run.
func TestFlushOrderFromSeed(t *testing.T) {
	var logs [2][]string
	for i := range logs {
		persists := &syncLog{FS: faultfs.New()}
		r, err := NewRegistry(RegistryConfig{Shards: 1, PersistDir: faultPersistDir, Factory: testFactory(nil), FS: persists})
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 20; u++ {
			r.Get(fmt.Sprintf("u%02d", u)).Release()
		}
		for flush := 0; flush < 2; flush++ {
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		logs[i] = persists.ids
	}
	if len(logs[0]) != 40 || !slices.Equal(logs[0], logs[1]) {
		t.Fatalf("two flushes of the same 20 tenants persisted\n%v\nand\n%v", logs[0], logs[1])
	}
}
