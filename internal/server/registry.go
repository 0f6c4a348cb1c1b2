package server

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/store"
)

// TenantFactory builds the MeanCache client for a new tenant. The serving
// layer calls it once per tenant activation (first request, or first
// request after eviction when no persisted cache exists).
type TenantFactory func(userID string) *core.Client

// Tenant is one user's serving state: their MeanCache client, the
// version of the encoder model its cached entries were embedded with, and
// the conversation sessions routed to them.
type Tenant struct {
	ID     string
	Client *core.Client

	// modelVersion is ModelVersion's value (nil: "").
	modelVersion atomic.Pointer[string]

	// refs counts in-flight requests holding this tenant (Registry.Get
	// takes a reference; Release drops it). Eviction skips referenced
	// tenants, so a request never mutates a cache that has already been
	// persisted and dropped.
	refs atomic.Int32

	// queries and hits count the queries this tenant answered while
	// resident (serverObs counts them; /v1/stats residents report them).
	queries, hits atomic.Int64

	// used is the shard clock at this tenant's latest Get, under the
	// shard lock: eviction takes the unreferenced tenant with the least.
	used int64

	// sessions maps session IDs to live conversations, capped at
	// maxTenantSessions with LRU drop. sessMu guards the map and the
	// clock; each session additionally carries its own mutex because
	// core.Session is single-goroutine (see the core concurrency
	// contract) while HTTP handlers are not.
	sessMu    sync.Mutex
	sessions  map[string]*tenantSession
	sessClock int64
}

// Release drops the reference taken by Registry.Get. Call it when the
// request is done with the tenant.
func (t *Tenant) Release() { t.refs.Add(-1) }

// ModelVersion reports the version of the encoder model the tenant's
// cached entries were embedded with, as the online FL coordinator last
// stamped it ("" before any stamp). The registry persists it with the
// cache and restores it on revival, before TenantHooks.TenantActivated.
func (t *Tenant) ModelVersion() string {
	if v := t.modelVersion.Load(); v != nil {
		return *v
	}
	return ""
}

// SetModelVersion stamps the tenant's cache as embedded with version.
func (t *Tenant) SetModelVersion(version string) { t.modelVersion.Store(&version) }

type tenantSession struct {
	mu       sync.Mutex
	sess     *core.Session
	lastUsed int64 // registry-local logical clock, under sessMu
}

// maxTenantSessions caps live conversations per tenant; the least
// recently used session is dropped when a new one would exceed it.
// Conversation *entries* stay cached — only the session's chain position
// is lost, so a revived conversation re-matches via context chains.
const maxTenantSessions = 256

// session returns the named conversation, creating it on first use.
func (t *Tenant) session(id string) *tenantSession {
	t.sessMu.Lock()
	defer t.sessMu.Unlock()
	t.sessClock++
	ts, ok := t.sessions[id]
	if !ok {
		if len(t.sessions) >= maxTenantSessions {
			var victim string
			var oldest int64
			for sid, s := range t.sessions {
				if victim == "" || s.lastUsed < oldest {
					victim, oldest = sid, s.lastUsed
				}
			}
			delete(t.sessions, victim)
		}
		ts = &tenantSession{sess: t.Client.NewSession()}
		t.sessions[id] = ts
	}
	ts.lastUsed = t.sessClock
	return ts
}

// TenantHooks lets an optional subsystem (the online FL coordinator)
// observe tenant activation. The hook runs under the owning shard's
// lock: it must not call back into the registry and should return
// quickly (it may do bounded per-tenant work, e.g. re-embedding a revived
// cache whose model version is stale — that stalls only the one shard).
type TenantHooks interface {
	// TenantActivated fires when a tenant becomes resident: fresh from
	// the factory, or revived with its persisted cache, τ and model
	// version already restored.
	TenantActivated(t *Tenant)
}

// DefaultShards is the shard count of a RegistryConfig that sets none.
const DefaultShards = 16

// RegistryConfig sizes the tenant registry.
type RegistryConfig struct {
	// Shards is the number of independently locked shards. Defaults to
	// DefaultShards.
	Shards int
	// MaxTenants bounds the number of resident tenants across all shards
	// (0 = unbounded). Each shard holds at most ⌈MaxTenants/Shards⌉; an
	// activation past that evicts the shard's least recently used
	// unreferenced tenant (the least use tick), persisted first when
	// PersistDir is set.
	MaxTenants int
	// PersistDir, when non-empty, is where evicted tenants' caches are
	// written (one store log per tenant) and reloaded from on
	// reactivation.
	PersistDir string
	// Factory builds new tenants. Required.
	Factory TenantFactory
	// Hooks, when non-nil, observes tenant activation.
	Hooks TenantHooks
	// Clock is the time source Drain's in-flight wait polls on and
	// eviction-retry backoff elapses against. Nil defaults to the wall
	// clock; cluster simulations inject a virtual one so drain budgets
	// elapse in virtual time.
	Clock sim.Clock
	// FS is the filesystem persistence runs on. Nil defaults to the real
	// one (store.OS); fault-injection tests inject faultfs.
	FS store.FS
	// Logf, when non-nil, receives persistence-recovery events: damaged
	// snapshots repaired at reload, quarantined snapshots, eviction
	// persist failures entering backoff.
	Logf func(format string, args ...any)
}

// Registry is the sharded tenant table: userID → Tenant, with lazy
// creation, LRU idle-tenant eviction (by use tick), and optional
// persistence across evictions. All methods are safe for concurrent use;
// distinct shards never contend.
type Registry struct {
	cfg      RegistryConfig
	fs       store.FS
	logf     func(format string, args ...any)
	perShard int
	shards   []*regShard

	activations atomic.Int64
	evictions   atomic.Int64
	reloads     atomic.Int64
	evictErrors atomic.Int64
	drains      atomic.Int64
	// Persistence-recovery counters: snapshots quarantined as
	// unreadable, reloads that repaired a truncated tail, records
	// salvaged past mid-log corruption.
	quarantines          atomic.Int64
	recoveredTruncations atomic.Int64
	salvagedRecords      atomic.Int64
	// Persists by the batch they appended (a tenant's changes, or its
	// whole cache) and the log compactions that followed them.
	persistAppends  atomic.Int64
	persistRewrites atomic.Int64
	compactions     atomic.Int64
}

type regShard struct {
	mu      sync.Mutex
	tenants map[string]*Tenant
	clock   int64 // bumped by every Get; a tenant's used is its last value

	// Eviction-persist failure backoff: after a failed evict persist the
	// shard stays over its resident bound and retries no sooner than
	// evictRetryAt (exponential in evictFails), instead of hammering a
	// failing disk on every request. Guarded by mu.
	evictFails   int
	evictRetryAt time.Time
}

// Eviction-persist retry backoff bounds.
const (
	evictBackoffBase = 100 * time.Millisecond
	evictBackoffMax  = 10 * time.Second
)

// NewRegistry builds a registry.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("server: RegistryConfig.Factory is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	cfg.Clock = sim.Or(cfg.Clock)
	if cfg.FS == nil {
		cfg.FS = store.OS
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &Registry{cfg: cfg, fs: cfg.FS, logf: logf, shards: make([]*regShard, cfg.Shards)}
	if cfg.MaxTenants > 0 {
		// Ceiling split so the aggregate bound is never under MaxTenants.
		r.perShard = (cfg.MaxTenants + cfg.Shards - 1) / cfg.Shards
	}
	for i := range r.shards {
		r.shards[i] = &regShard{tenants: make(map[string]*Tenant)}
	}
	if cfg.PersistDir != "" {
		if err := r.fs.MkdirAll(cfg.PersistDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: creating persist dir: %w", err)
		}
		sweepOrphanedTemps(r.fs, cfg.PersistDir)
	}
	return r, nil
}

// sweepOrphanedTemps removes temp files abandoned by a crash, which
// would otherwise accumulate in a long-lived persist dir: a log
// compaction's rewrite (<log>.compact), and the temp snapshots
// (<log>.tmp-*) that persists wrote before they appended to the log.
// Only stale temps go: in cluster mode the dir is shared, and a young
// temp may be a live peer's compaction in flight.
func sweepOrphanedTemps(fsys store.FS, dir string) {
	const staleAfter = time.Hour
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if name := e.Name(); e.IsDir() || !strings.Contains(name, ".cache.tmp-") && !strings.HasSuffix(name, ".cache.compact") {
			continue
		}
		if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > staleAfter {
			fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Persistent reports whether evicted/drained tenants are persisted (a
// PersistDir is configured). Cluster handoff requires it: draining a
// tenant from a non-persistent registry would simply destroy its state.
func (r *Registry) Persistent() bool { return r.cfg.PersistDir != "" }

// ShardFor reports which shard serves userID (exported for tests and the
// stats endpoint).
func (r *Registry) ShardFor(userID string) int {
	h := fnv.New32a()
	h.Write([]byte(userID))
	return int(h.Sum32() % uint32(len(r.shards)))
}

// Get returns userID's tenant with a reference held — the caller must
// Release it when done. It cannot fail. The tenant is activated if
// needed: activation reloads a persisted cache when one exists, otherwise
// calls the factory; a snapshot that will not reload is quarantined and
// the tenant served cold. Get stamps the tenant with the shard's use tick
// and may evict the shard's least recently used unreferenced tenant to
// stay within the resident bound; a failed evict persist keeps the
// victim resident and backs off. Persistence I/O (evict persist, reload)
// runs under the shard lock, stalling that shard's other users. That is
// measured: bench's evict_churn workload activates a tenant on one
// request in three, and its rtt_p95_us is the activation path: the
// victim's log re-read, one appended batch and two fsyncs (the log and
// its directory), then the revived tenant's log read. Taking the I/O
// off the lock is ROADMAP's resident → persisting → evicted state machine.
func (r *Registry) Get(userID string) *Tenant {
	sh := r.shards[r.ShardFor(userID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.clock++
	t, resident := sh.tenants[userID]
	if !resident {
		t = r.activate(userID)
		sh.tenants[userID] = t
		r.activations.Add(1)
	}
	t.refs.Add(1)
	t.used = sh.clock
	for !resident && r.perShard > 0 && len(sh.tenants) > r.perShard {
		if !sh.evictRetryAt.IsZero() && r.cfg.Clock.Now().Before(sh.evictRetryAt) {
			break // recent eviction-persist failure; retry after backoff
		}
		before := len(sh.tenants)
		if err := r.evictLocked(sh); err != nil {
			// Eviction failure (persist I/O) must not fail this request —
			// the requested tenant activated fine and its reference is
			// already held. The victim keeps its adapted state resident
			// (never dropped unpersisted) and the shard retries with
			// exponential backoff, temporarily exceeding its bound.
			r.evictErrors.Add(1)
			backoff := evictBackoffBase << min(sh.evictFails, 10)
			if backoff > evictBackoffMax {
				backoff = evictBackoffMax
			}
			sh.evictFails++
			sh.evictRetryAt = r.cfg.Clock.Now().Add(backoff)
			r.logf("server: registry: eviction persist failed (attempt %d, next retry in %v): %v",
				sh.evictFails, backoff, err)
			break
		}
		sh.evictFails = 0
		sh.evictRetryAt = time.Time{}
		if len(sh.tenants) == before {
			break // every tenant is pinned by in-flight requests
		}
	}
	return t
}

// Flush persists every resident tenant's cache, τ and model version
// (best effort, all shards), without evicting anyone. Call it on shutdown
// so a restart with the same PersistDir resumes warm; a no-op when
// persistence is off. Each shard's tenants are persisted in ID order, so
// the order of writes follows from the resident set. The first error is
// returned after attempting every tenant.
func (r *Registry) Flush() error {
	if r.cfg.PersistDir == "" {
		return nil
	}
	var first error
	for _, sh := range r.shards {
		sh.mu.Lock()
		for _, id := range slices.Sorted(maps.Keys(sh.tenants)) {
			if err := r.persist(sh.tenants[id], r.persistPath(id)); err != nil && first == nil {
				first = err
			}
		}
		sh.mu.Unlock()
	}
	return first
}

// ErrTenantBusy is returned by Drain when in-flight requests still pin
// the tenant after the wait budget; the caller retries on a later sweep.
var ErrTenantBusy = errors.New("server: tenant pinned by in-flight requests")

// Drain removes userID from residency, persisting its cache and τ first
// when persistence is on — the tenant-handoff path used by cluster mode
// when a ring change moves a tenant to another node. Unlike eviction it
// targets one tenant and waits (up to wait, polling) for in-flight
// references to clear rather than skipping pinned tenants; the refs check
// and removal happen under the shard lock, so no new reference can slip
// in between them (the same invariant evictLocked relies on). Returns
// whether the tenant was resident; a tenant still pinned at the deadline
// stays resident and ErrTenantBusy is returned.
func (r *Registry) Drain(userID string, wait time.Duration) (bool, error) {
	sh := r.shards[r.ShardFor(userID)]
	deadline := r.cfg.Clock.Now().Add(wait)
	for {
		sh.mu.Lock()
		t, ok := sh.tenants[userID]
		if !ok {
			sh.mu.Unlock()
			return false, nil
		}
		if t.refs.Load() == 0 {
			if path := r.persistPath(t.ID); path != "" {
				if err := r.persist(t, path); err != nil {
					sh.mu.Unlock()
					return true, err
				}
			}
			delete(sh.tenants, t.ID)
			sh.mu.Unlock()
			r.drains.Add(1)
			return true, nil
		}
		sh.mu.Unlock()
		if !r.cfg.Clock.Now().Before(deadline) {
			return true, ErrTenantBusy
		}
		r.cfg.Clock.Sleep(time.Millisecond)
	}
}

// activate builds a tenant, reviving its persisted cache when present.
// A snapshot that cannot be reloaded is quarantined and the tenant is
// served cold: one tenant's corrupt file must cost that tenant its cache
// warmth, not its availability.
func (r *Registry) activate(userID string) *Tenant {
	t := &Tenant{ID: userID, Client: r.cfg.Factory(userID), sessions: make(map[string]*tenantSession)}
	if path := r.persistPath(userID); path != "" {
		if _, err := r.fs.Stat(path); err == nil {
			if r.reload(t, path) {
				r.reloads.Add(1)
			}
		}
	}
	if r.cfg.Hooks != nil {
		r.cfg.Hooks.TenantActivated(t)
	}
	return t
}

// reload replaces the factory-built t.Client with one holding the
// tenant's persisted cache contents and feedback-adapted τ, and restores
// t's model version. The factory-built client supplies everything else
// (encoder, LLM, context threshold). It holds the log's lock throughout,
// since replay truncates a torn tail in place. A log that will not
// reload is quarantined and t left as it was; reload reports whether t
// was revived.
func (r *Registry) reload(t *Tenant, path string) bool {
	userID, fresh := t.ID, t.Client
	st, err := store.OpenLocked(r.fs, path)
	if err != nil {
		r.quarantine(userID, path, fmt.Errorf("server: opening persisted cache for %q: %w", userID, err))
		return false
	}
	defer st.Close()
	if rep := st.Report(); rep.Dirty() {
		if rep.TailTruncated > 0 {
			r.recoveredTruncations.Add(1)
		}
		r.salvagedRecords.Add(int64(rep.SalvagedRecords))
		r.logf("server: registry: recovered damaged cache for %q: %d tail bytes truncated, %d corrupt regions (%d bytes) skipped, %d records salvaged",
			userID, rep.TailTruncated, rep.CorruptRegions, rep.CorruptSkipped, rep.SalvagedRecords)
	}
	opts := fresh.Options()
	dim, capacity := fresh.Cache().Dim(), fresh.Cache().Capacity()
	cc, err := cache.LoadFromWithIndex(st, dim, capacity, opts.Policy, opts.IndexFactory(dim))
	if err != nil {
		r.quarantine(userID, path, fmt.Errorf("server: reloading cache for %q: %w", userID, err))
		return false
	}
	if raw, err := st.Get(tauKey); err == nil && len(raw) == 4 {
		opts.Tau = math.Float32frombits(binary.LittleEndian.Uint32(raw))
	}
	if raw, err := st.Get(modelVersionKey); err == nil {
		t.SetModelVersion(string(raw))
	}
	t.Client = core.NewWithCache(opts, cc)
	return true
}

// quarantine moves a snapshot that failed to reload out of the way
// (path → path.quarantine) so the next activation starts cold instead
// of tripping over the same corrupt file, and the bytes stay on disk
// for forensics. Best effort: if even the rename fails, the tenant
// still activates cold and the next activation retries.
func (r *Registry) quarantine(userID, path string, cause error) {
	qpath := path + ".quarantine"
	r.fs.Remove(qpath)
	if err := r.fs.Rename(path, qpath); err != nil {
		r.logf("server: registry: snapshot for %q unreadable (%v) and quarantine rename failed: %v", userID, cause, err)
		return
	}
	r.fs.SyncDir(filepath.Dir(path))
	r.quarantines.Add(1)
	r.logf("server: registry: quarantined unreadable snapshot for %q to %s: %v", userID, qpath, cause)
}

// evictLocked removes the shard's least recently used tenant (least
// used tick) with no in-flight references, persisting its cache (and
// live τ) first when persistence is on. Tenants pinned by in-flight
// requests are skipped — evicting them would persist a snapshot those
// requests then mutate invisibly. If every tenant is busy the shard
// temporarily exceeds its bound. A scan is enough: a shard holds at most
// ⌈MaxTenants/Shards⌉ tenants, and the victim's persist costs far more
// than reading their ticks. Callers hold sh.mu.
func (r *Registry) evictLocked(sh *regShard) error {
	var t *Tenant
	for _, cand := range sh.tenants {
		if cand.refs.Load() == 0 && (t == nil || cand.used < t.used) {
			t = cand
		}
	}
	if t == nil {
		return nil
	}
	if path := r.persistPath(t.ID); path != "" {
		if err := r.persist(t, path); err != nil {
			return err
		}
	}
	delete(sh.tenants, t.ID)
	r.evictions.Add(1)
	return nil
}

// A tenant's persisted store holds, next to the cache's "entry/" and
// "meta/gen" records, its feedback-adapted threshold, so eviction does
// not reset what the user taught the system, and its model version
// (empty until the FL coordinator stamps one).
const (
	tauKey          = "meta/tau"
	modelVersionKey = "meta/modelver"
)

// persist appends t's state to the tenant's store log as one committed
// batch and syncs it: the cache's changes since this registry last read
// or wrote that log (cache.AppendTo; its whole cache when the log is not
// as it left it), τ and the model version. The log's lock is held for
// the whole persist. In cluster mode two nodes can transiently persist
// the same tenant through shared storage (a degraded local-fallback
// serve racing the owner's handoff): the lock orders them, and the
// second finds the log changed and mirrors its whole cache, so the log
// revives to one node's state, the last writer's. The log is compacted
// once it holds more garbage than live bytes, so repeated evict/revive
// cycles do not grow it.
func (r *Registry) persist(t *Tenant, path string) error {
	st, err := store.OpenLocked(r.fs, path)
	if err != nil {
		return fmt.Errorf("server: opening the log of evicted tenant %q: %w", t.ID, err)
	}
	var b store.Batch
	var tau [4]byte
	binary.LittleEndian.PutUint32(tau[:], math.Float32bits(t.Client.Tau()))
	b.Put(tauKey, tau[:])
	b.Put(modelVersionKey, []byte(t.ModelVersion()))
	res, err := t.Client.Cache().AppendTo(st, &b)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("server: persisting evicted tenant %q: %w", t.ID, err)
	}
	if res.Whole {
		r.persistRewrites.Add(1)
	} else {
		r.persistAppends.Add(1)
	}
	if res.Compacted {
		r.compactions.Add(1)
	}
	if res.CompactErr != nil {
		r.logf("server: registry: compacting the log of %q failed after its persist landed: %v", t.ID, res.CompactErr)
	}
	return nil
}

// persistPath is the tenant's store log path, or "" when persistence is
// off. The user ID is hex-encoded so arbitrary IDs map to safe, unique
// file names.
func (r *Registry) persistPath(userID string) string {
	if r.cfg.PersistDir == "" {
		return ""
	}
	return filepath.Join(r.cfg.PersistDir, hex.EncodeToString([]byte(userID))+".cache")
}

// Resident reports the number of currently resident tenants.
func (r *Registry) Resident() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		n += len(sh.tenants)
		sh.mu.Unlock()
	}
	return n
}

// RegistryStats snapshots registry activity.
type RegistryStats struct {
	Shards      int   `json:"shards"`
	Resident    int   `json:"resident_tenants"`
	Activations int64 `json:"activations"`
	Evictions   int64 `json:"evictions"`
	Reloads     int64 `json:"reloads"`
	EvictErrors int64 `json:"evict_errors,omitempty"`
	Drains      int64 `json:"drains,omitempty"`
	// Persistence-recovery activity (see Registry counter docs).
	Quarantines          int64 `json:"quarantines,omitempty"`
	RecoveredTruncations int64 `json:"recovered_truncations,omitempty"`
	SalvagedRecords      int64 `json:"salvaged_records,omitempty"`
	// Persists that appended a tenant's changes, those that appended
	// its whole cache, and the log compactions after them.
	PersistAppends  int64 `json:"persist_appends,omitempty"`
	PersistRewrites int64 `json:"persist_rewrites,omitempty"`
	Compactions     int64 `json:"compactions,omitempty"`
}

// Stats snapshots registry counters.
func (r *Registry) Stats() RegistryStats {
	return RegistryStats{
		Shards:      len(r.shards),
		Resident:    r.Resident(),
		Activations: r.activations.Load(),
		Evictions:   r.evictions.Load(),
		Reloads:     r.reloads.Load(),
		EvictErrors: r.evictErrors.Load(),
		Drains:      r.drains.Load(),

		Quarantines:          r.quarantines.Load(),
		RecoveredTruncations: r.recoveredTruncations.Load(),
		SalvagedRecords:      r.salvagedRecords.Load(),

		PersistAppends:  r.persistAppends.Load(),
		PersistRewrites: r.persistRewrites.Load(),
		Compactions:     r.compactions.Load(),
	}
}

// IDs returns the user IDs of every resident tenant, in no particular
// order. Unlike Range, the caller holds no locks afterwards, so it may
// Get/Release each tenant — the pattern the FL rollout uses to pin
// tenants while re-embedding.
func (r *Registry) IDs() []string {
	var ids []string
	r.Range(func(t *Tenant) { ids = append(ids, t.ID) })
	return ids
}

// Range calls fn for every resident tenant, in no particular order
// (shard by shard, under each shard's lock — fn must not call back into
// the registry).
func (r *Registry) Range(fn func(*Tenant)) {
	for _, sh := range r.shards {
		sh.mu.Lock()
		for _, t := range sh.tenants {
			fn(t)
		}
		sh.mu.Unlock()
	}
}
