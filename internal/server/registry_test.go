package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/index"
)

// testFactory builds tenants around stub encoders, counting activations.
func testFactory(activations *atomic.Int64) TenantFactory {
	return func(userID string) *core.Client {
		if activations != nil {
			activations.Add(1)
		}
		return core.New(core.Options{
			Encoder: &stubEncoder{dim: 16},
			Tau:     0.9,
			TopK:    4,
		})
	}
}

func TestRegistryShardRouting(t *testing.T) {
	r, err := NewRegistry(RegistryConfig{Shards: 8, Factory: testFactory(nil)})
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[int]bool)
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("user-%d", i)
		sh := r.ShardFor(id)
		if sh < 0 || sh >= 8 {
			t.Fatalf("ShardFor(%q) = %d, outside [0,8)", id, sh)
		}
		if again := r.ShardFor(id); again != sh {
			t.Fatalf("ShardFor(%q) unstable: %d then %d", id, sh, again)
		}
		used[sh] = true
	}
	if len(used) < 4 {
		t.Errorf("100 users landed on only %d of 8 shards", len(used))
	}
}

func TestRegistryLazyActivationIsStable(t *testing.T) {
	var activations atomic.Int64
	r, err := NewRegistry(RegistryConfig{Shards: 4, Factory: testFactory(&activations)})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := r.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	a1.Release()
	a2, err := r.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	a2.Release()
	if a1 != a2 {
		t.Error("repeated Get returned distinct tenants")
	}
	if n := activations.Load(); n != 1 {
		t.Errorf("factory ran %d times for one tenant, want 1", n)
	}
	if r.Resident() != 1 {
		t.Errorf("Resident() = %d, want 1", r.Resident())
	}
}

func TestRegistryIdleEviction(t *testing.T) {
	// One shard so the LRU order is fully observable.
	r, err := NewRegistry(RegistryConfig{Shards: 1, MaxTenants: 2, Factory: testFactory(nil)})
	if err != nil {
		t.Fatal(err)
	}
	get := func(id string) {
		t.Helper()
		tn, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		tn.Release()
	}
	get("a")
	get("b")
	// Touch "a" so "b" is the idle (least recently used) tenant.
	get("a")
	get("c")
	st := r.Stats()
	if st.Resident != 2 {
		t.Errorf("Resident = %d, want 2", st.Resident)
	}
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	resident := make(map[string]bool)
	r.Range(func(tn *Tenant) { resident[tn.ID] = true })
	if !resident["a"] || !resident["c"] || resident["b"] {
		t.Errorf("resident set = %v, want {a, c}", resident)
	}
}

func TestRegistryEvictionPersistsAndReloads(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(RegistryConfig{
		Shards: 1, MaxTenants: 1, PersistDir: dir, Factory: testFactory(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := r.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Client.Insert("what is federated learning", "an answer", cache.NoParent); err != nil {
		t.Fatal(err)
	}
	alice.Client.SetTau(0.93)
	alice.Release()

	// Activating bob evicts alice (capacity 1), persisting her cache.
	bob, err := r.Get("bob")
	if err != nil {
		t.Fatal(err)
	}
	bob.Release()
	if st := r.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}

	revived, err := r.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Release()
	if revived == alice {
		t.Fatal("revived tenant is the evicted instance; want a reloaded one")
	}
	if n := revived.Client.Cache().Len(); n != 1 {
		t.Fatalf("revived cache has %d entries, want 1", n)
	}
	res := revived.Client.Lookup("what is federated learning", nil)
	if !res.Hit || res.Response != "an answer" {
		t.Errorf("revived Lookup = hit=%v response=%q, want the persisted entry", res.Hit, res.Response)
	}
	// The feedback-adapted threshold survives eviction too.
	if tau := revived.Client.Tau(); tau != 0.93 {
		t.Errorf("revived tau = %v, want the persisted 0.93", tau)
	}
	if st := r.Stats(); st.Reloads != 1 {
		t.Errorf("Reloads = %d, want 1", st.Reloads)
	}
}

// TestRegistryEvictionSkipsPinnedTenants: a tenant with an in-flight
// request (reference held) must not be persisted-and-dropped under it.
func TestRegistryEvictionSkipsPinnedTenants(t *testing.T) {
	r, err := NewRegistry(RegistryConfig{Shards: 1, MaxTenants: 1, Factory: testFactory(nil)})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := r.Get("pinned")
	if err != nil {
		t.Fatal(err)
	}
	// While pinned is held, activating two more tenants must evict the
	// unpinned one, never the pinned one.
	other, err := r.Get("other")
	if err != nil {
		t.Fatal(err)
	}
	other.Release()
	third, err := r.Get("third")
	if err != nil {
		t.Fatal(err)
	}
	third.Release()
	resident := make(map[string]bool)
	r.Range(func(tn *Tenant) { resident[tn.ID] = true })
	if !resident["pinned"] {
		t.Errorf("pinned tenant was evicted while referenced (resident=%v)", resident)
	}
	if resident["other"] {
		t.Errorf("unpinned LRU tenant survived eviction (resident=%v)", resident)
	}
	pinned.Release()
	// Once released, the tenant is evictable again.
	fourth, err := r.Get("fourth")
	if err != nil {
		t.Fatal(err)
	}
	fourth.Release()
	resident = make(map[string]bool)
	r.Range(func(tn *Tenant) { resident[tn.ID] = true })
	if resident["pinned"] {
		t.Error("released tenant still resident after a further activation should have evicted it")
	}
}

func TestRegistryConcurrentGet(t *testing.T) {
	var activations atomic.Int64
	r, err := NewRegistry(RegistryConfig{Shards: 4, Factory: testFactory(&activations)})
	if err != nil {
		t.Fatal(err)
	}
	const users, perUser = 16, 8
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		for k := 0; k < perUser; k++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				tn, err := r.Get(fmt.Sprintf("user-%d", u))
				if err != nil {
					t.Error(err)
					return
				}
				defer tn.Release()
				tn.Client.Lookup("warmup", nil)
			}(u)
		}
	}
	wg.Wait()
	if n := activations.Load(); n != users {
		t.Errorf("factory ran %d times, want %d (one per user)", n, users)
	}
}

// TestRegistryFlushPersistsResidentTenants: shutdown flush writes every
// resident tenant so a restarted registry resumes warm without any
// eviction having happened.
func TestRegistryFlushPersistsResidentTenants(t *testing.T) {
	dir := t.TempDir()
	cfg := RegistryConfig{Shards: 2, PersistDir: dir, Factory: testFactory(nil)}
	r, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alice", "bob"} {
		tn, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Client.Insert("query of "+id, "answer for "+id, cache.NoParent); err != nil {
			t.Fatal(err)
		}
		tn.Client.SetTau(0.91)
		tn.Release()
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// A fresh registry (new process) over the same dir resumes warm.
	r2, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alice", "bob"} {
		tn, err := r2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		res := tn.Client.Lookup("query of "+id, nil)
		if !res.Hit || res.Response != "answer for "+id {
			t.Errorf("%s after restart: hit=%v response=%q", id, res.Hit, res.Response)
		}
		if tau := tn.Client.Tau(); tau != 0.91 {
			t.Errorf("%s tau after restart = %v, want 0.91", id, tau)
		}
		tn.Release()
	}
	if st := r2.Stats(); st.Reloads != 2 {
		t.Errorf("Reloads = %d, want 2", st.Reloads)
	}
}

// TestRegistryIndexedTenantRevival: a tenant whose cache runs on a
// pinned vector index (Options.IndexFactory) must come back on it after
// an evict/revive cycle, with every persisted entry searchable through
// the rebuilt index.
func TestRegistryIndexedTenantRevival(t *testing.T) {
	dir := t.TempDir()
	factory := func(userID string) *core.Client {
		return core.New(core.Options{
			Encoder: &stubEncoder{dim: 16},
			Tau:     0.9,
			TopK:    4,
			IndexFactory: func(dim int) index.Index {
				return index.NewHNSW(dim, index.HNSWConfig{M: 8, EfConstruction: 40, EfSearch: 48, Seed: 1})
			},
		})
	}
	r, err := NewRegistry(RegistryConfig{
		Shards: 1, MaxTenants: 1, PersistDir: dir, Factory: factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := r.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if tier := alice.Client.Cache().ServingTier(); tier != "hnsw" {
		t.Fatalf("fresh tenant cache serves from %q, want the factory's hnsw", tier)
	}
	queries := make([]string, 10)
	for i := range queries {
		queries[i] = fmt.Sprintf("indexed question %d", i)
		if _, err := alice.Client.Insert(queries[i], "a", cache.NoParent); err != nil {
			t.Fatal(err)
		}
	}
	alice.Release()

	bob, err := r.Get("bob") // evicts alice
	if err != nil {
		t.Fatal(err)
	}
	bob.Release()

	revived, err := r.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Release()
	if tier := revived.Client.Cache().ServingTier(); tier != "hnsw" {
		t.Fatalf("revived tenant cache serves from %q, want the factory's hnsw", tier)
	}
	for _, q := range queries {
		if res := revived.Client.Lookup(q, nil); !res.Hit {
			t.Fatalf("revived indexed lookup missed %q", q)
		}
	}
}

// TestRegistryPromotedTenantRevival: with no IndexFactory a tenant's
// size picks its index. One filled past the Flat threshold of its
// dimension is promoted to the IVF tier, and after an evict/revive cycle
// walks the same ladder again: every entry searchable, back on IVF.
func TestRegistryPromotedTenantRevival(t *testing.T) {
	const dim = 768
	flatMax, _ := index.DefaultThresholds(dim)
	r, err := NewRegistry(RegistryConfig{
		Shards: 1, MaxTenants: 1, PersistDir: t.TempDir(),
		Factory: func(string) *core.Client {
			return core.New(core.Options{Encoder: &stubEncoder{dim: dim}, Tau: 0.9, TopK: 4})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Promotion runs in the background and the cache exposes only the
	// serving tier, so that is what there is to wait on.
	waitIVF := func(tn *Tenant, when string) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); tn.Client.Cache().ServingTier() != "ivf"; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d entries past a Flat threshold of %d still serve from %q",
					when, tn.Client.Cache().Len(), flatMax, tn.Client.Cache().ServingTier())
			}
		}
	}
	alice, err := r.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if tier := alice.Client.Cache().ServingTier(); tier != "flat" {
		t.Fatalf("empty tenant serves from %q, want flat", tier)
	}
	queries := make([]string, flatMax+64)
	for i := range queries {
		queries[i] = fmt.Sprintf("promoted question %d", i)
		if _, err := alice.Client.Insert(queries[i], "a", cache.NoParent); err != nil {
			t.Fatal(err)
		}
	}
	waitIVF(alice, "filled")
	alice.Release()

	bob, err := r.Get("bob") // evicts alice
	if err != nil {
		t.Fatal(err)
	}
	bob.Release()

	revived, err := r.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Release()
	if st := r.Stats(); st.Reloads != 1 || st.Quarantines != 0 {
		t.Fatalf("reloads %d quarantines %d, want 1 and 0", st.Reloads, st.Quarantines)
	}
	if n := revived.Client.Cache().Len(); n != len(queries) {
		t.Fatalf("revived %d entries, want %d", n, len(queries))
	}
	waitIVF(revived, "revived")
	for _, q := range queries {
		if res := revived.Client.Lookup(q, nil); !res.Hit {
			t.Fatalf("revived lookup missed %q on tier %s", q, res.Tier)
		}
	}
}
