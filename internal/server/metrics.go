package server

import (
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Collector aggregates serving metrics: per-tenant and aggregate
// hit/miss/feedback counters plus latency distributions held in
// metrics.LatencyRecorder reservoirs (exact means, sampled percentiles,
// constant memory per row). It outlives tenant eviction — counters
// are keyed by user ID, not by resident tenant — so /v1/stats reflects
// the whole run. Safe for concurrent use.
type Collector struct {
	mu        sync.Mutex
	aggregate *tenantCounters
	tenants   map[string]*tenantCounters
}

type tenantCounters struct {
	queries   int64
	hits      int64
	feedbacks int64
	errors    int64
	latency   metrics.LatencyRecorder
	search    metrics.LatencyRecorder
}

// Reservoir sizes: the aggregate sees every request so it gets a larger
// window; per-tenant rows stay small because there can be millions of
// them. Means are exact regardless (sum/count); only percentiles sample.
const (
	aggregateReservoir = 4096
	tenantReservoir    = 512
	// maxTrackedTenants bounds the per-user map: user IDs arrive
	// unauthenticated, so without a cap any client could mint IDs and
	// grow the collector forever. Users beyond the cap still count in
	// the aggregate; only their per-tenant row is missing.
	maxTrackedTenants = 10000
)

// NewCollector builds an empty collector.
func NewCollector() *Collector {
	return &Collector{
		aggregate: newTenantCounters(aggregateReservoir),
		tenants:   make(map[string]*tenantCounters),
	}
}

func newTenantCounters(reservoir int) *tenantCounters {
	return &tenantCounters{
		latency: *metrics.NewLatencyRecorder(reservoir),
		search:  *metrics.NewLatencyRecorder(reservoir),
	}
}

// tenant returns userID's counters, or nil once the tracked-tenant cap
// is reached (aggregate counters still cover such users).
func (c *Collector) tenant(userID string) *tenantCounters {
	tc, ok := c.tenants[userID]
	if !ok {
		if len(c.tenants) >= maxTrackedTenants {
			return nil
		}
		tc = newTenantCounters(tenantReservoir)
		c.tenants[userID] = tc
	}
	return tc
}

// RecordQuery logs one served query for userID.
func (c *Collector) RecordQuery(userID string, hit bool, latency, search time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tc := range []*tenantCounters{c.aggregate, c.tenant(userID)} {
		if tc == nil {
			continue
		}
		tc.queries++
		if hit {
			tc.hits++
		}
		tc.latency.Record(latency)
		tc.search.Record(search)
	}
}

// RecordFeedback logs one false-hit report.
func (c *Collector) RecordFeedback(userID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aggregate.feedbacks++
	if tc := c.tenant(userID); tc != nil {
		tc.feedbacks++
	}
}

// RecordError logs one failed request (bad input, upstream failure).
func (c *Collector) RecordError(userID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aggregate.errors++
	if userID == "" {
		return
	}
	if tc := c.tenant(userID); tc != nil {
		tc.errors++
	}
}

// TenantMetrics is the JSON form of one tenant's (or the aggregate's)
// serving counters.
type TenantMetrics struct {
	Queries      int64   `json:"queries"`
	Hits         int64   `json:"hits"`
	HitRatio     float64 `json:"hit_ratio"`
	Feedbacks    int64   `json:"feedbacks"`
	Errors       int64   `json:"errors"`
	MeanMicros   int64   `json:"latency_mean_micros"`
	P50Micros    int64   `json:"latency_p50_micros"`
	P95Micros    int64   `json:"latency_p95_micros"`
	P99Micros    int64   `json:"latency_p99_micros"`
	SearchMicros int64   `json:"search_mean_micros"`
}

func (tc *tenantCounters) snapshot() TenantMetrics {
	pct := tc.latency.Percentiles(50, 95, 99)
	m := TenantMetrics{
		Queries:      tc.queries,
		Hits:         tc.hits,
		Feedbacks:    tc.feedbacks,
		Errors:       tc.errors,
		MeanMicros:   tc.latency.Mean().Microseconds(),
		P50Micros:    pct[0].Microseconds(),
		P95Micros:    pct[1].Microseconds(),
		P99Micros:    pct[2].Microseconds(),
		SearchMicros: tc.search.Mean().Microseconds(),
	}
	if tc.queries > 0 {
		m.HitRatio = float64(tc.hits) / float64(tc.queries)
	}
	return m
}

// CollectorStatus reports the tracked-tenant map's saturation state:
// once Saturated, new user IDs only count in the aggregate.
type CollectorStatus struct {
	TrackedTenants    int  `json:"tracked_tenants"`
	MaxTrackedTenants int  `json:"max_tracked_tenants"`
	Saturated         bool `json:"saturated"`
}

// Status snapshots the tracked-tenant map's saturation state.
func (c *Collector) Status() CollectorStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CollectorStatus{
		TrackedTenants:    len(c.tenants),
		MaxTrackedTenants: maxTrackedTenants,
		Saturated:         len(c.tenants) >= maxTrackedTenants,
	}
}

// Aggregate snapshots the cross-tenant totals.
func (c *Collector) Aggregate() TenantMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aggregate.snapshot()
}

// Tenants snapshots per-tenant counters for the top n tenants by query
// count (n ≤ 0 means all), keyed by user ID. The expensive work — the
// ranking sort, and the reservoir sorts inside each snapshot — is kept
// off the recording hot path: only a light (id, queries) scan and the n
// chosen snapshots run under the lock. Counters may advance between the
// two phases; a row caught mid-update is merely a snapshot taken a
// moment later.
func (c *Collector) Tenants(n int) map[string]TenantMetrics {
	type key struct {
		id      string
		queries int64
	}
	c.mu.Lock()
	keys := make([]key, 0, len(c.tenants))
	for id, tc := range c.tenants {
		keys = append(keys, key{id, tc.queries})
	}
	c.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].queries != keys[j].queries {
			return keys[i].queries > keys[j].queries
		}
		return keys[i].id < keys[j].id
	})
	if n > 0 && len(keys) > n {
		keys = keys[:n]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]TenantMetrics, len(keys))
	for _, k := range keys {
		if tc, ok := c.tenants[k.id]; ok {
			out[k.id] = tc.snapshot()
		}
	}
	return out
}
