package server

// Registry persistence-failure policy, driven through the faultfs seam:
// an eviction that cannot persist keeps the tenant resident and retries
// with backoff (adapted state is never dropped unpersisted), a corrupt
// snapshot is quarantined and the tenant served cold, and log damage
// repaired at reload is surfaced through the registry's recovery
// counters.

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
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
	ten, err := r.Get(userID)
	if err != nil {
		t.Fatalf("Get(%q): %v", userID, err)
	}
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
	bob, err := r.Get("bob")
	if err != nil {
		t.Fatalf("Get(bob) during full disk: %v", err)
	}
	bob.Release()
	if got := r.Resident(); got != 2 {
		t.Fatalf("Resident() = %d after failed eviction, want 2 (victim retained)", got)
	}
	if s := r.Stats(); s.EvictErrors != 1 || s.Evictions != 0 {
		t.Fatalf("stats after failed eviction: %+v", s)
	}

	// Within the backoff window further Gets do not re-attempt the
	// failing persist.
	if _, err := r.Get("carol"); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.EvictErrors != 1 {
		t.Fatalf("eviction retried inside backoff window: %+v", s)
	}

	// Space frees and the backoff elapses: the next activation drains
	// the over-bound shard back down, and the victims' snapshots land.
	fs.AddSpace(1 << 26)
	clk.Advance(time.Minute)
	if _, err := r.Get("dave"); err != nil {
		t.Fatal(err)
	}
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
	ten, err := r.Get("alice")
	if err != nil {
		t.Fatalf("Get with corrupt snapshot: %v", err)
	}
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
	ten2, err := r2.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
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
// persist rewrites it in the current format.
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
		ten, err := r.Get("alice")
		if err != nil {
			t.Fatal(err)
		}
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
	ten, err := r2.Get("alice")
	if err != nil {
		t.Fatalf("Get over torn snapshot: %v", err)
	}
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
