package server

import (
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// serverObs is the server's observability wiring: the tracer plus
// pre-resolved metric handles, looked up once at construction so the
// request path never touches the registry's maps. A Server without
// Config.Metrics and Config.Tracer has a nil *serverObs and pays one
// nil check per request.
type serverObs struct {
	tracer  *obs.Tracer
	metrics bool

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
	searchTier [4]*obs.Histogram
}

func newServerObs(cfg Config, collector *Collector) *serverObs {
	if cfg.Metrics == nil && cfg.Tracer == nil {
		return nil
	}
	o := &serverObs{tracer: cfg.Tracer}
	reg := cfg.Metrics
	if reg == nil {
		return o
	}
	o.metrics = true

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
	for id, tier := range []string{"unknown", "flat", "ivf", "hnsw"} {
		o.searchTier[id] = reg.Histogram("meancache_search_duration_seconds",
			"Index search latency, by serving tier.", obs.DefLatencyBounds,
			obs.Label{Name: "tier", Value: tier})
	}

	registerRegistryMetrics(reg, cfg.Registry)
	registerCollectorMetrics(reg, collector)
	if cfg.Batcher != nil {
		registerBatcherMetrics(reg, encodeBatcherNames, cfg.Batcher)
	}
	if cfg.SearchBatcher != nil {
		registerBatcherMetrics(reg, searchBatcherNames, cfg.SearchBatcher)
	}
	if cfg.Governor != nil {
		registerGovernorMetrics(reg, cfg.Governor)
	}
	return o
}

// recordQuery records metrics and trace spans for one successful query.
// res's stage fields carry the core-measured timings; decodeDur and
// respondStart/total are the server-side measurements around them.
func (o *serverObs) recordQuery(t *obs.Trace, user string, res *core.Result, decodeDur, respondStart, total time.Duration) {
	searchDur := res.SearchTime - res.EncodeTime
	tier := obs.TierID(res.Tier)
	if o.metrics {
		if res.Hit {
			o.queriesHit.Inc()
			if res.Degraded {
				o.queriesDegraded.Inc()
			}
		} else {
			o.queriesMiss.Inc()
		}
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
	}
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

// recordError counts one failed request on its route's counter.
func (o *serverObs) recordError(route string) {
	if o == nil || !o.metrics {
		return
	}
	if route == routeFeedback {
		o.errFeedback.Inc()
	} else {
		o.errQuery.Inc()
	}
}

// dropTrace abandons a trace on a request error path (remote traces stay
// with their forward handler). Nil-safe all the way down.
func (o *serverObs) dropTrace(t *obs.Trace) {
	if o == nil {
		return
	}
	o.tracer.Abandon(t)
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

	// Arena occupancy and tier distribution are computed by walking the
	// resident tenants at scrape time — one cheap pass per gauge, nothing
	// on the serving path.
	arena := func(get func(rows, slots, free int) int) func() float64 {
		return func() float64 {
			var rows, slots, free int
			r.Range(func(t *Tenant) {
				a := t.Client.Cache().ArenaStats()
				rows += a.Rows
				slots += a.Slots
				free += a.FreeSlots
			})
			return float64(get(rows, slots, free))
		}
	}
	reg.GaugeFunc("meancache_arena_rows",
		"Live index rows across resident tenants.",
		arena(func(rows, _, _ int) int { return rows }))
	reg.GaugeFunc("meancache_arena_slots",
		"Index arena slot high-water across resident tenants.",
		arena(func(_, slots, _ int) int { return slots }))
	reg.GaugeFunc("meancache_arena_free_slots",
		"Recycled index arena slots awaiting reuse across resident tenants.",
		arena(func(_, _, free int) int { return free }))
	for _, tier := range []string{"flat", "ivf", "hnsw"} {
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

func registerCollectorMetrics(reg *obs.Registry, c *Collector) {
	reg.GaugeFunc("meancache_collector_tracked_tenants",
		"Tenants with per-tenant serving counters.", func() float64 {
			return float64(c.Status().TrackedTenants)
		})
	reg.GaugeFunc("meancache_collector_saturated",
		"1 when the per-tenant counter map hit maxTrackedTenants.", func() float64 {
			if c.Status().Saturated {
				return 1
			}
			return 0
		})
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
	if m := g.Maintenance; m != nil {
		reg.GaugeFunc("meancache_maintenance_held",
			"Weighted-semaphore units held by background maintenance.",
			func() float64 { return float64(m.Info().Held) })
		reg.GaugeFunc("meancache_maintenance_waiters",
			"Background tasks waiting for maintenance capacity.",
			func() float64 { return float64(m.Info().Waiters) })
	}
}

// batcherNames is one batcher's exposition: the metric-name prefix and
// the help string of each of its five series.
type batcherNames struct {
	prefix                                    string
	queue, size, requests, batches, coalesced string
}

var (
	encodeBatcherNames = batcherNames{
		prefix:    "meancache_batch",
		queue:     "Encode requests parked behind the passes in flight.",
		size:      "Dispatched encode batch sizes.",
		requests:  "Encode calls served through the batcher.",
		batches:   "Batch dispatches.",
		coalesced: "Encode calls that shared a batch with at least one other.",
	}
	searchBatcherNames = batcherNames{
		prefix:    "meancache_search_batch",
		queue:     "Searches parked behind the passes in flight.",
		size:      "Per-tenant search pass sizes (1 = a direct search).",
		requests:  "Searches routed through the search batcher.",
		batches:   "Search passes (coalesced passes plus direct searches).",
		coalesced: "Searches that shared a multi-probe index pass.",
	}
)

// registerBatcherMetrics exposes a batcher's queue depth, batch-size
// histogram and coalescing counters; the encode and search batchers share
// the QueueDepth/OnBatch/Stats trio it reads.
func registerBatcherMetrics(reg *obs.Registry, n batcherNames, b interface {
	QueueDepth() int
	OnBatch(fn func(size int))
	Stats() BatcherStats
}) {
	reg.GaugeFunc(n.prefix+"_queue_depth", n.queue, func() float64 {
		return float64(b.QueueDepth())
	})
	sizes := reg.Histogram(n.prefix+"_size", n.size, obs.DefBatchBounds)
	b.OnBatch(func(size int) { sizes.Observe(float64(size)) })
	reg.CounterFunc(n.prefix+"_requests_total", n.requests, func() float64 {
		return float64(b.Stats().Requests)
	})
	reg.CounterFunc(n.prefix+"_batches_total", n.batches, func() float64 {
		return float64(b.Stats().Batches)
	})
	reg.CounterFunc(n.prefix+"_coalesced_total", n.coalesced, func() float64 {
		return float64(b.Stats().Coalesced)
	})
}
