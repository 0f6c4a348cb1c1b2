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

// serve swaps m, rec's model as the registry holds it, into the shared
// serving encoder (a single atomic pointer: every subsequent encode in
// every tenant uses it) and then records rec as the serving version,
// which also makes rec's τ the one Tau reports. That order means a
// tenant revived between the two is re-embedded by the new encoder and
// stamped with the old version, so its next revival re-embeds again; the
// reverse order would stamp old-space vectors with the new version.
func (s *Service) serve(rec ModelRecord, m *embed.Model) {
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
// never an outage. Returns the number of entries migrated. The order of
// IDs does not matter: each tenant's re-embed and stamp depend on that
// tenant alone.
func (s *Service) rollout(rec ModelRecord, m *embed.Model) int {
	s.serve(rec, m)
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
			t.SetModelVersion(rec.Version)
			s.rollouts.tenantsReembedded.Add(1)
			s.rollouts.entriesReembedded.Add(int64(n))
		}(id)
	}
	wg.Wait()
	return int(migrated.Load())
}

// tenantActivated is the registry lifecycle hook (through LateHooks)
// that keeps evicted-and-revived tenants consistent with rollouts: it
// re-embeds any cache whose model-version stamp is not the serving
// version (the tenant was on disk when a rollout happened). It runs under
// the shard lock, so the synchronous re-embed stalls only that shard —
// and only for tenants revived across a model boundary (a fresh tenant's
// cache is empty).
//
// A tenant is stamped only once its entries are confirmed in the serving
// version's space, by a rollout's re-embed or by this hook. The stamp is
// the version the serving encoder holds, never models.Latest(), which may
// be ahead of a tenant whose re-embed failed, that was evicted
// mid-rollout, or that was revived between a commit and its rollout's
// encoder swap: a version committed but not yet swapped in is not what
// the re-embed encodes with. An out-of-date (or absent) stamp makes
// revival re-embed, which is always safe.
func (s *Service) tenantActivated(t *server.Tenant) {
	cur := s.serving.Load()
	if cur == nil || t.ModelVersion() == cur.Version {
		return // the seed model serves, or the cache is in its space already
	}
	t.Client.SetTau(float32(cur.Tau))
	n, err := t.Client.Reembed()
	if err != nil {
		s.rollouts.reembedErrors.Add(1)
		return
	}
	t.SetModelVersion(cur.Version)
	if n > 0 {
		s.rollouts.activationsMigrated.Add(1)
		s.rollouts.entriesReembedded.Add(int64(n))
	}
}

// LateHooks adapts a Service that may not exist yet into
// server.TenantHooks: the tenant registry is constructed before the
// coordinator (each references the other), so callers wire a LateHooks
// into server.RegistryConfig.Hooks and Bind the service once built.
// Unbound, the hook is a no-op.
type LateHooks struct {
	svc atomic.Pointer[Service]
}

// Bind installs the service behind the hooks.
func (l *LateHooks) Bind(s *Service) { l.svc.Store(s) }

// TenantActivated implements server.TenantHooks.
func (l *LateHooks) TenantActivated(t *server.Tenant) {
	if s := l.svc.Load(); s != nil {
		s.tenantActivated(t)
	}
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
