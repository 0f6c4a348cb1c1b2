package flserve

import (
	"sync"
	"sync/atomic"

	"repro/internal/embed"
	"repro/internal/server"
)

// rolloutStats counts hot-rollout activity for /v1/fl/status.
type rolloutStats struct {
	swaps               atomic.Int64
	tenantsReembedded   atomic.Int64
	entriesReembedded   atomic.Int64
	activationsMigrated atomic.Int64
	reembedErrors       atomic.Int64
}

// RolloutStats is the JSON snapshot of rollout activity.
type RolloutStats struct {
	Swaps               int64 `json:"swaps"`
	TenantsReembedded   int64 `json:"tenants_reembedded"`
	EntriesReembedded   int64 `json:"entries_reembedded"`
	ActivationsMigrated int64 `json:"activations_migrated"`
	ReembedErrors       int64 `json:"reembed_errors,omitempty"`
}

// rolloutParallel is how many tenants a rollout re-embeds at once. It is
// the only bound on background re-embeds: an activation re-embed (the
// hook below) and a round's training phase take no token, so neither
// waits on a rollout.
const rolloutParallel = 2

// serve swaps rec's weights into the shared serving encoder (a single
// atomic pointer: every subsequent encode in every tenant uses them) and
// then records rec as the serving version. That order means a tenant
// revived between the two is re-embedded by the new encoder and stamped
// with the old version, so its next revival re-embeds again; the reverse
// order would stamp old-space vectors with the new version.
func (s *Service) serve(rec ModelRecord, weights []float32) {
	m := embed.NewModel(s.cfg.Arch, 0)
	m.SetWeights(weights)
	s.cfg.Encoder.Swap(m)
	s.serving.Store(&rec)
}

// rollout installs a committed global model into the running process:
// swap the serving encoder (serve), then walk resident tenants installing
// τ_global and re-embedding their cached entries so stored vectors rejoin
// the probe embedding space. At most rolloutParallel tenants re-embed at
// once, each in short write-locked batches, so queries are never
// blocked; until a tenant's migration completes, its probes (already in
// the new space) score against old-space vectors — a brief recall dip,
// never an outage. Returns the number of entries migrated.
func (s *Service) rollout(rec ModelRecord, weights []float32) int {
	s.serve(rec, weights)
	s.rollouts.swaps.Add(1)

	ids := s.cfg.Registry.IDs()
	sem := make(chan struct{}, rolloutParallel)
	var wg sync.WaitGroup
	var migrated atomic.Int64
	for _, id := range ids {
		wg.Add(1)
		sem <- struct{}{}
		go func(id string) {
			defer wg.Done()
			defer func() { <-sem }()
			t := s.cfg.Registry.Get(id) // pins against eviction
			defer t.Release()
			t.Client.SetTau(float32(rec.Tau))
			n, err := t.Client.Reembed()
			if err != nil {
				s.rollouts.reembedErrors.Add(1)
				return
			}
			migrated.Add(int64(n))
			s.noteTenantVersion(id, rec.Version)
			s.rollouts.tenantsReembedded.Add(1)
			s.rollouts.entriesReembedded.Add(int64(n))
		}(id)
	}
	wg.Wait()
	return int(migrated.Load())
}

// modelVerMetaKey records, in each tenant's persisted store, which model
// version its cache entries were embedded under.
const modelVerMetaKey = "modelver"

// noteTenantVersion records the model version a tenant's cache entries
// were last confirmed migrated to. TenantMeta stamps THIS version on
// eviction — never models.Latest(), which may be ahead of a tenant whose
// re-embed failed, that was evicted mid-rollout, or that was revived
// between a commit and its rollout's encoder swap; an out-of-date (or
// absent) stamp makes revival re-embed, which is always safe.
func (s *Service) noteTenantVersion(user, version string) {
	s.tvMu.Lock()
	s.tenantVersions[user] = version
	s.tvMu.Unlock()
}

// tenantVersion reports the last confirmed version ("" = never migrated).
func (s *Service) tenantVersion(user string) string {
	s.tvMu.Lock()
	defer s.tvMu.Unlock()
	return s.tenantVersions[user]
}

// serviceHooks are the registry lifecycle hooks that keep
// evicted-and-revived tenants consistent with rollouts: persistence
// stamps the current model version next to the cache, and activation
// re-embeds any cache whose stamp is stale (the tenant was on disk when a
// rollout happened). LateHooks hands them to the registry.
type serviceHooks struct{ s *Service }

// TenantActivated implements server.TenantHooks. It runs under the shard
// lock, so the synchronous re-embed stalls only that shard — and only for
// tenants revived across a model boundary. It compares against, and
// stamps, the version the serving encoder holds: a version committed but
// not yet swapped in is not what the re-embed encodes with.
func (h serviceHooks) TenantActivated(t *server.Tenant, meta map[string][]byte) {
	cur := h.s.serving.Load()
	if cur == nil {
		return // the serving encoder is still the seed model
	}
	if meta != nil && string(meta[modelVerMetaKey]) == cur.Version {
		h.s.noteTenantVersion(t.ID, cur.Version)
		return // persisted under the serving model
	}
	t.Client.SetTau(float32(cur.Tau))
	if meta == nil && t.Client.Cache().Len() == 0 {
		// Fresh tenant with an empty cache: entries it inserts will use
		// the serving encoder already.
		h.s.noteTenantVersion(t.ID, cur.Version)
		return
	}
	if n, err := t.Client.Reembed(); err != nil {
		h.s.rollouts.reembedErrors.Add(1)
	} else {
		h.s.noteTenantVersion(t.ID, cur.Version)
		if n > 0 {
			h.s.rollouts.activationsMigrated.Add(1)
			h.s.rollouts.entriesReembedded.Add(int64(n))
		}
	}
}

// TenantMeta implements server.TenantHooks. The stamp is the version the
// tenant's entries were last confirmed migrated to, not the registry's
// latest — see noteTenantVersion.
func (h serviceHooks) TenantMeta(t *server.Tenant) map[string][]byte {
	ver := h.s.tenantVersion(t.ID)
	if ver == "" {
		return nil
	}
	return map[string][]byte{modelVerMetaKey: []byte(ver)}
}

// LateHooks adapts a Service that may not exist yet into
// server.TenantHooks: the tenant registry is constructed before the
// coordinator (each references the other), so callers wire a LateHooks
// into server.RegistryConfig.Hooks and Bind the service once built.
// Unbound, every hook is a no-op.
type LateHooks struct {
	svc atomic.Pointer[Service]
}

// Bind installs the service behind the hooks.
func (l *LateHooks) Bind(s *Service) { l.svc.Store(s) }

// TenantActivated implements server.TenantHooks.
func (l *LateHooks) TenantActivated(t *server.Tenant, meta map[string][]byte) {
	if s := l.svc.Load(); s != nil {
		serviceHooks{s}.TenantActivated(t, meta)
	}
}

// TenantMeta implements server.TenantHooks.
func (l *LateHooks) TenantMeta(t *server.Tenant) map[string][]byte {
	if s := l.svc.Load(); s != nil {
		return serviceHooks{s}.TenantMeta(t)
	}
	return nil
}

// RolloutSnapshot returns rollout counters.
func (s *Service) RolloutSnapshot() RolloutStats {
	return RolloutStats{
		Swaps:               s.rollouts.swaps.Load(),
		TenantsReembedded:   s.rollouts.tenantsReembedded.Load(),
		EntriesReembedded:   s.rollouts.entriesReembedded.Load(),
		ActivationsMigrated: s.rollouts.activationsMigrated.Load(),
		ReembedErrors:       s.rollouts.reembedErrors.Load(),
	}
}
