// Package resilience is the serving layer's overload-protection toolkit:
// the mechanisms that keep a multi-tenant semantic cache answering when
// its upstream LLM is slow, failing, or simply outnumbered by demand.
//
// The pieces, assembled by a Governor and wired through internal/server:
//
//   - TokenBuckets: lazily created, sharded per-tenant token-bucket
//     quotas, enforced before any per-request work so one tenant cannot
//     starve the rest.
//   - Limiter: an AIMD adaptive concurrency limiter for the upstream
//     miss path — additive increase on healthy responses, multiplicative
//     decrease on timeouts/errors and on latency-gradient congestion —
//     with a bounded FIFO wait queue. Requests past the queue bound are
//     shed immediately instead of stacking up behind a slow upstream.
//   - Breaker: a per-upstream circuit breaker (closed → open on
//     error/timeout rate over a sliding outcome window, half-open
//     probes). While open, the serving layer degrades to cache-only
//     mode: hits are still answered (at a relaxed τ), misses are shed
//     with Retry-After instead of being queued into a dead upstream.
//
// Work off the request path is not admitted here either: flserve bounds
// its own FL rounds and rollout re-embeds, and an index tier build runs
// inside the cache fill whose Add crosses the tier's threshold
// (index.Adaptive), on that request's goroutine.
//
// Every type is safe for concurrent use and keeps its hot path
// allocation-free; admission checks are designed to ride the PR 5
// zero-alloc query path without widening its budget.
package resilience

import (
	"fmt"
	"time"
)

// Shed reasons reported by Rejection.Reason and the shed counters.
const (
	// ReasonQuota: the tenant's token bucket is empty.
	ReasonQuota = "quota"
	// ReasonSaturated: the upstream concurrency limiter and its wait
	// queue are full.
	ReasonSaturated = "saturated"
	// ReasonUpstreamOpen: the upstream circuit breaker is open and the
	// request could not be served from cache.
	ReasonUpstreamOpen = "breaker_open"
)

// Rejection is a load-shedding decision: the request was refused by an
// admission mechanism rather than failed by the work itself. The serving
// layer maps it to 429/503 with a Retry-After header; CacheOnly marks
// rejections that should first attempt degraded cache-only serving.
type Rejection struct {
	// Reason is one of the Reason* constants.
	Reason string
	// RetryAfter is the caller's backoff hint (how long until a quota
	// token refills, or until the breaker half-opens).
	RetryAfter time.Duration
	// CacheOnly reports that the upstream is unavailable (breaker open)
	// but cached answers may still be served at a relaxed threshold.
	CacheOnly bool
}

// Error implements error.
func (r *Rejection) Error() string {
	return fmt.Sprintf("resilience: shed (%s), retry after %v", r.Reason, r.RetryAfter)
}

// GovernorConfig assembles a Governor. Zero-valued sections disable the
// corresponding mechanism (a nil Governor disables everything).
type GovernorConfig struct {
	// Quota configures per-tenant token buckets; Rate <= 0 disables
	// quota enforcement.
	Quota QuotaConfig
	// Limiter configures the upstream AIMD concurrency limiter;
	// MaxLimit <= 0 disables it.
	Limiter LimiterConfig
	// Breaker configures the upstream circuit breaker; Window <= 0
	// disables it.
	Breaker BreakerConfig
	// Deprecated: MaintenanceWeight is read by nothing. The field stays
	// only because the frozen bench/stack.go sets it, and goes in the
	// benchmark PR that re-captures BENCHMARK.json.
	MaintenanceWeight int64
}

// Governor bundles the serving layer's resilience state: quotas at the
// front door, limiter + breaker on the upstream path. Any field may be
// nil when the mechanism is disabled.
type Governor struct {
	Quotas  *TokenBuckets
	Limiter *Limiter
	Breaker *Breaker
	// Deprecated: Maintenance is read by nothing. The field stays only
	// because the frozen bench/stack.go passes it to
	// core.Options.MaintenanceGate, and goes in the benchmark PR that
	// re-captures BENCHMARK.json.
	Maintenance struct{}
}

// NewGovernor builds a Governor from cfg, instantiating only the
// mechanisms cfg enables.
func NewGovernor(cfg GovernorConfig) *Governor {
	g := &Governor{}
	if cfg.Quota.Rate > 0 {
		g.Quotas = NewTokenBuckets(cfg.Quota)
	}
	if cfg.Limiter.MaxLimit > 0 {
		g.Limiter = NewLimiter(cfg.Limiter)
	}
	if cfg.Breaker.Window > 0 {
		g.Breaker = NewBreaker(cfg.Breaker)
	}
	return g
}

// Admit runs the front-door admission check for one tenant request.
// It returns nil when the request may proceed, or a *Rejection when the
// tenant's quota is exhausted. Nil-safe: a nil Governor admits everything.
func (g *Governor) Admit(tenant string) *Rejection {
	if g == nil || g.Quotas == nil {
		return nil
	}
	return g.Quotas.Allow(tenant)
}

// Saturated reports whether the upstream limiter is running at its
// concurrency limit with work queued behind it — the signal the cluster
// layer uses to suppress speculative hedged forwards. Nil-safe.
func (g *Governor) Saturated() bool {
	if g == nil || g.Limiter == nil {
		return false
	}
	return g.Limiter.Saturated()
}

// Stats snapshots every enabled mechanism (nil sections are disabled).
type GovernorStats struct {
	Quota   *QuotaStats   `json:"quota,omitempty"`
	Limiter *LimiterStats `json:"limiter,omitempty"`
	Breaker *BreakerStats `json:"breaker,omitempty"`
}

// Stats snapshots the governor. Nil-safe (returns zero stats).
func (g *Governor) Stats() GovernorStats {
	var s GovernorStats
	if g == nil {
		return s
	}
	if g.Quotas != nil {
		qs := g.Quotas.Stats()
		s.Quota = &qs
	}
	if g.Limiter != nil {
		ls := g.Limiter.Stats()
		s.Limiter = &ls
	}
	if g.Breaker != nil {
		bs := g.Breaker.Stats()
		s.Breaker = &bs
	}
	return s
}
