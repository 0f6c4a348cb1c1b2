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

// rollout installs the new global model into the running process: swap
// the shared serving encoder (a single atomic pointer — every subsequent
// encode in every tenant uses the new weights), then walk resident
// tenants installing τ_global and re-embedding their cached entries so
// stored vectors rejoin the probe embedding space. Re-embedding runs with
// bounded parallelism and short write-locked batches, so queries are
// never blocked; until a tenant's migration completes, its probes
// (already in the new space) score against old-space vectors — a brief
// recall dip, never an outage. Returns the number of entries migrated.
func (s *Service) rollout(version string, weights []float32, tau float64) int {
	serving := embed.NewModel(s.cfg.Arch, 0)
	serving.SetWeights(weights)
	s.cfg.Encoder.Swap(serving)
	s.rollouts.swaps.Add(1)

	ids := s.cfg.Registry.IDs()
	sem := make(chan struct{}, s.cfg.RolloutParallel)
	var wg sync.WaitGroup
	var migrated atomic.Int64
	for _, id := range ids {
		wg.Add(1)
		sem <- struct{}{}
		go func(id string) {
			defer wg.Done()
			defer func() { <-sem }()
			t, err := s.cfg.Registry.Get(id) // pins against eviction
			if err != nil {
				s.rollouts.reembedErrors.Add(1)
				return
			}
			defer t.Release()
			t.Client.SetTau(float32(tau))
			n, err := t.Client.Reembed()
			if err != nil {
				s.rollouts.reembedErrors.Add(1)
				return
			}
			migrated.Add(int64(n))
			s.noteTenantVersion(id, version)
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
// re-embed failed or that was evicted mid-rollout; an out-of-date (or
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
// tenants revived across a model boundary.
func (h serviceHooks) TenantActivated(t *server.Tenant, meta map[string][]byte) {
	cur, ok := h.s.models.Latest()
	if !ok {
		return // no committed version yet: nothing to migrate to
	}
	if meta != nil && string(meta[modelVerMetaKey]) == cur.Version {
		h.s.noteTenantVersion(t.ID, cur.Version)
		return // persisted under the current model
	}
	if meta == nil && t.Client.Cache().Len() == 0 {
		// Fresh tenant with an empty cache: entries it inserts will use
		// the current encoder already. Just install the global τ.
		t.Client.SetTau(float32(h.s.Tau()))
		h.s.noteTenantVersion(t.ID, cur.Version)
		return
	}
	t.Client.SetTau(float32(cur.Tau))
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
