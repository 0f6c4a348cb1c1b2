package server

import (
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// serverObs is the only place a serving outcome is counted: the tracer
// plus pre-resolved metric handles, looked up once at construction so the
// request path never touches the registry's maps. /metrics exports the
// handles and /v1/stats reads them (stats), so every number has one
// source. Every Server has one; only the tracer may be nil.
type serverObs struct {
	tracer *obs.Tracer

	queriesHit      *obs.Counter
	queriesMiss     *obs.Counter
	queriesDegraded *obs.Counter
	feedbacks       *obs.Counter
	errQuery        *obs.Counter
	errFeedback     *obs.Counter

	reqDur        *obs.Histogram
	stageDecode   *obs.Histogram
	stageEncode   *obs.Histogram
	stageSearch   *obs.Histogram
	stageUpstream *obs.Histogram
	stageFill     *obs.Histogram
	stageRespond  *obs.Histogram
	// searchTier is indexed by obs.TierID so the hot path labels per-tier
	// search latency without a map lookup.
	searchTier [3]*obs.Histogram
}

func newServerObs(cfg Config, reg *obs.Registry) *serverObs {
	o := &serverObs{tracer: cfg.Tracer}
	o.queriesHit = reg.Counter("meancache_queries_total",
		"Queries served, by cache outcome.", obs.Label{Name: "result", Value: "hit"})
	o.queriesMiss = reg.Counter("meancache_queries_total",
		"Queries served, by cache outcome.", obs.Label{Name: "result", Value: "miss"})
	o.queriesDegraded = reg.Counter("meancache_degraded_hits_total",
		"Hits served in cache-only degraded mode (breaker open, relaxed tau).")
	o.feedbacks = reg.Counter("meancache_feedbacks_total", "Feedback reports accepted.")
	o.errQuery = reg.Counter("meancache_request_errors_total",
		"Failed requests, by route.", obs.Label{Name: "route", Value: "query"})
	o.errFeedback = reg.Counter("meancache_request_errors_total",
		"Failed requests, by route.", obs.Label{Name: "route", Value: "feedback"})

	o.reqDur = reg.Histogram("meancache_request_duration_seconds",
		"End-to-end query latency.", obs.DefLatencyBounds)
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("meancache_stage_duration_seconds",
			"Per-stage query latency.", obs.DefLatencyBounds,
			obs.Label{Name: "stage", Value: name})
	}
	o.stageDecode = stage("decode")
	o.stageEncode = stage("encode")
	o.stageSearch = stage("search")
	o.stageUpstream = stage("upstream")
	o.stageFill = stage("cachefill")
	o.stageRespond = stage("respond")
	for id, tier := range []string{"unknown", "flat", "ivf"} {
		o.searchTier[id] = reg.Histogram("meancache_search_duration_seconds",
			"Index search latency, by serving tier.", obs.DefLatencyBounds,
			obs.Label{Name: "tier", Value: tier})
	}

	registerRegistryMetrics(reg, cfg.Registry)
	if cfg.Governor != nil {
		registerGovernorMetrics(reg, cfg.Governor)
	}
	return o
}

// countQuery counts one answered query, in the totals and on its tenant's
// row. It runs before the reply is written, so a client that has its
// answer finds it counted in /v1/stats.
func (o *serverObs) countQuery(tenant *Tenant, res *core.Result) {
	tenant.queries.Add(1)
	if !res.Hit {
		o.queriesMiss.Inc()
		return
	}
	tenant.hits.Add(1)
	o.queriesHit.Inc()
	if res.Degraded {
		o.queriesDegraded.Inc()
	}
}

// observeQuery records the latency histograms and trace spans of one
// answered query, after its reply is written. res's stage fields carry
// the core-measured timings; decodeDur and respondStart/total are the
// server-side measurements around them.
func (o *serverObs) observeQuery(t *obs.Trace, user string, res *core.Result, decodeDur, respondStart, total time.Duration) {
	searchDur := res.SearchTime - res.EncodeTime
	tier := obs.TierID(res.Tier)
	o.reqDur.ObserveDuration(total)
	o.stageDecode.ObserveDuration(decodeDur)
	o.stageEncode.ObserveDuration(res.EncodeTime)
	o.stageSearch.ObserveDuration(searchDur)
	o.searchTier[tier].ObserveDuration(searchDur)
	if !res.Hit {
		o.stageUpstream.ObserveDuration(res.UpstreamTime)
		o.stageFill.ObserveDuration(res.FillTime)
	}
	o.stageRespond.ObserveDuration(total - respondStart)
	if t != nil {
		t.User = user
		t.Hit = res.Hit
		t.Status = http.StatusOK
		t.Add(obs.SpanDecode, 0, decodeDur)
		t.Add(obs.SpanEncode, decodeDur, res.EncodeTime)
		if sp := t.Add(obs.SpanSearch, decodeDur+res.EncodeTime, searchDur); sp != nil {
			sp.Tier = tier
			sp.Candidates = int32(res.Candidates)
		}
		if !res.Hit {
			t.Add(obs.SpanUpstream, decodeDur+res.SearchTime, res.UpstreamTime)
			t.Add(obs.SpanCacheFill, decodeDur+res.SearchTime+res.UpstreamTime, res.FillTime)
		}
		t.Add(obs.SpanRespond, respondStart, total-respondStart)
		o.tracer.Finish(t, total)
	}
}

// countFeedback counts one accepted feedback report.
func (o *serverObs) countFeedback() { o.feedbacks.Inc() }

// countError counts one failed request on its route's counter.
func (o *serverObs) countError(route string) {
	if route == routeFeedback {
		o.errFeedback.Inc()
	} else {
		o.errQuery.Inc()
	}
}

// stats is /v1/stats' aggregate, read from the handles /metrics exports.
func (o *serverObs) stats() ServingStats {
	hits := int64(o.queriesHit.Value())
	st := ServingStats{
		Queries:      hits + int64(o.queriesMiss.Value()),
		Hits:         hits,
		Feedbacks:    int64(o.feedbacks.Value()),
		Errors:       int64(o.errQuery.Value() + o.errFeedback.Value()),
		MeanMicros:   meanMicros(o.reqDur),
		SearchMicros: meanMicros(o.stageSearch),
	}
	if st.Queries > 0 {
		st.HitRatio = float64(hits) / float64(st.Queries)
	}
	return st
}

// meanMicros is a seconds histogram's exact mean in microseconds.
func meanMicros(h *obs.Histogram) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return int64(h.Sum() / float64(n) * 1e6)
}

func registerRegistryMetrics(reg *obs.Registry, r *Registry) {
	stat := func(get func(RegistryStats) float64) func() float64 {
		return func() float64 { return get(r.Stats()) }
	}
	reg.GaugeFunc("meancache_registry_resident_tenants",
		"Tenants currently resident in memory.",
		stat(func(s RegistryStats) float64 { return float64(s.Resident) }))
	reg.CounterFunc("meancache_registry_activations_total",
		"Tenant activations (cold constructions plus reloads).",
		stat(func(s RegistryStats) float64 { return float64(s.Activations) }))
	reg.CounterFunc("meancache_registry_evictions_total",
		"Idle-tenant evictions.",
		stat(func(s RegistryStats) float64 { return float64(s.Evictions) }))
	reg.CounterFunc("meancache_registry_reloads_total",
		"Tenant activations served from the persistent store.",
		stat(func(s RegistryStats) float64 { return float64(s.Reloads) }))
	reg.CounterFunc("meancache_registry_drains_total",
		"Tenants drained out (cluster handoff).",
		stat(func(s RegistryStats) float64 { return float64(s.Drains) }))
	reg.CounterFunc("meancache_registry_evict_errors_total",
		"Eviction persistence failures.",
		stat(func(s RegistryStats) float64 { return float64(s.EvictErrors) }))
	reg.CounterFunc("meancache_store_recovered_truncations_total",
		"Tenant reloads that repaired a torn log tail (crash recovery).",
		stat(func(s RegistryStats) float64 { return float64(s.RecoveredTruncations) }))
	reg.CounterFunc("meancache_store_salvaged_records_total",
		"Records salvaged past mid-log corruption during tenant reloads.",
		stat(func(s RegistryStats) float64 { return float64(s.SalvagedRecords) }))
	reg.CounterFunc("meancache_store_quarantines_total",
		"Unreadable tenant snapshots quarantined at activation.",
		stat(func(s RegistryStats) float64 { return float64(s.Quarantines) }))

	// Index rows and tier distribution are computed by walking the
	// resident tenants at scrape time — one cheap pass per gauge, nothing
	// on the serving path.
	reg.GaugeFunc("meancache_arena_rows",
		"Live index rows across resident tenants.", func() float64 {
			rows := 0
			r.Range(func(t *Tenant) { rows += t.Client.Cache().IndexRows() })
			return float64(rows)
		})
	for _, tier := range []string{"flat", "ivf"} {
		tier := tier
		reg.GaugeFunc("meancache_tenants_by_tier",
			"Resident tenants, by serving index tier.", func() float64 {
				n := 0
				r.Range(func(t *Tenant) {
					if t.Client.Cache().ServingTier() == tier {
						n++
					}
				})
				return float64(n)
			}, obs.Label{Name: "tier", Value: tier})
	}
}

// registerGovernorMetrics exposes admission-control state: everything is
// read from the governor's atomics at scrape time, nothing rides the
// request path.
func registerGovernorMetrics(reg *obs.Registry, g *resilience.Governor) {
	if q := g.Quotas; q != nil {
		reg.GaugeFunc("meancache_quota_tenants",
			"Tenants with a tracked token bucket.", func() float64 {
				return float64(q.Tenants())
			})
		reg.CounterFunc("meancache_admissions_total",
			"Requests admitted past the per-tenant quota check.", func() float64 {
				return float64(q.Allowed())
			})
		reg.CounterFunc("meancache_sheds_total",
			"Requests shed, by reason.", func() float64 {
				return float64(q.Rejected())
			}, obs.Label{Name: "reason", Value: "quota"})
	}
	if l := g.Limiter; l != nil {
		reg.GaugeFunc("meancache_limiter_limit",
			"Current AIMD upstream concurrency limit.", l.Limit)
		reg.GaugeFunc("meancache_limiter_inflight",
			"Upstream calls currently in flight.", func() float64 {
				return float64(l.Inflight())
			})
		reg.GaugeFunc("meancache_limiter_queue_depth",
			"Requests waiting for an upstream slot.", func() float64 {
				return float64(l.QueueDepth())
			})
		reg.CounterFunc("meancache_limiter_decreases_total",
			"Multiplicative decreases of the concurrency limit.", func() float64 {
				return float64(l.Stats().Decreases)
			})
		reg.CounterFunc("meancache_sheds_total",
			"Requests shed, by reason.", func() float64 {
				return float64(l.ShedCount())
			}, obs.Label{Name: "reason", Value: "saturated"})
	}
	if b := g.Breaker; b != nil {
		reg.GaugeFunc("meancache_breaker_state",
			"Upstream circuit breaker state (0 closed, 1 half-open, 2 open).",
			func() float64 { return float64(b.State()) })
		reg.CounterFunc("meancache_breaker_opens_total",
			"Circuit breaker trips.", func() float64 {
				return float64(b.OpenCount())
			})
		reg.CounterFunc("meancache_sheds_total",
			"Requests shed, by reason.", func() float64 {
				return float64(b.ShedCount())
			}, obs.Label{Name: "reason", Value: "breaker_open"})
	}
}
