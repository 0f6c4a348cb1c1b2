// Package server is the multi-tenant serving layer: many per-user
// MeanCache clients (internal/core) behind one concurrent HTTP process —
// the deployment the paper sketches in Figure 1 scaled from one device to
// a fleet of users.
//
// The pieces:
//
//   - Registry: a sharded userID→Tenant table with lazy activation, LRU
//     idle-tenant eviction by a per-shard use tick, and optional
//     persistence of evicted caches via internal/store.
//   - serverObs: the one place a serving outcome is counted — obs
//     counters and histograms exported at GET /metrics, which GET
//     /v1/stats reads back as JSON, plus per-tenant query and hit
//     atomics on each resident Tenant.
//   - Server: the JSON HTTP API (POST /v1/query, POST /v1/feedback,
//     GET /v1/stats, GET /metrics, GET /healthz) that routes requests by
//     user ID and proxies misses to the upstream LLM configured in each
//     tenant's client.
//
// cmd/cacheserve runs this process; cmd/loadgen drives it.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Observer receives serving-path signals. The online FL example collector
// (internal/flserve) implements it to turn live traffic into per-tenant
// private training shards; implementations must be safe for concurrent
// use and must return quickly (they run on the request path).
type Observer interface {
	// ObserveQuery fires after every answered query. matchedQuery is the
	// cached query that served a hit ("" on a miss); score is the match
	// similarity.
	ObserveQuery(user, query string, hit bool, matchedQuery string, score float32)
	// ObserveFeedback fires after every accepted feedback report.
	ObserveFeedback(user string, fb Feedback)
}

// Feedback kinds accepted by POST /v1/feedback.
const (
	// FeedbackFalseHit is §III-A.2's signal: a cache hit was wrong (the
	// user re-asked the LLM). Raises the tenant's τ.
	FeedbackFalseHit = "false_hit"
	// FeedbackMissedDup is the complementary online-learning signal: a
	// query missed although the user had asked it before. Lowers the
	// tenant's τ and, via the observer, contributes a labelled positive
	// pair to the tenant's private FL shard.
	FeedbackMissedDup = "missed_dup"
)

// Feedback is the normalised form of a feedback report passed to the
// Observer.
type Feedback struct {
	// Kind is FeedbackFalseHit or FeedbackMissedDup.
	Kind string
	// Query is the probe the feedback refers to (optional for false_hit).
	Query string
	// Other is the counterpart text: the cached query wrongly served
	// (false_hit) or the earlier query this one duplicates (missed_dup).
	Other string
}

// Config assembles a Server.
type Config struct {
	// Registry supplies tenants. Required.
	Registry *Registry
	// Deprecated: Batcher is read by nothing. The field stays only
	// because the frozen bench/stack.go sets it, and goes in the benchmark
	// PR that re-captures BENCHMARK.json.
	Batcher *Batcher
	// Deprecated: SearchBatcher is read by nothing. The field stays only
	// because the frozen bench/stack.go sets it, and goes in the benchmark
	// PR that re-captures BENCHMARK.json.
	SearchBatcher *SearchBatcher
	// StatsTenants caps how many resident-tenant rows /v1/stats returns,
	// largest traffic first. Defaults to 20; -1 means all.
	StatsTenants int
	// Observer, when non-nil, sees every query and feedback signal.
	Observer Observer
	// Metrics, when non-nil, is the registry the serving metrics join (a
	// process shares one across its layers); otherwise the server keeps a
	// registry of its own. Either way GET /metrics serves it as Prometheus
	// text exposition.
	Metrics *obs.Registry
	// Tracer, when non-nil, traces requests (head-sampled plus
	// slow-capture) and gains a GET /v1/debug/traces route serving the
	// recent-trace ring.
	Tracer *obs.Tracer
	// Governor, when non-nil, enforces admission control: per-tenant
	// token-bucket quotas at the front door (429 + Retry-After when a
	// bucket runs dry) and, via the resilience.Guard the upstream LLM is
	// wrapped in, concurrency limiting and circuit breaking on the miss
	// path. Its state is reported under /v1/stats and /metrics.
	Governor *resilience.Governor
}

// Server is the HTTP serving process.
type Server struct {
	cfg     Config
	obs     *serverObs
	mux     *http.ServeMux
	wrapper func(http.Handler) http.Handler
	http    *http.Server
	ln      net.Listener
}

// New builds a Server (not yet listening; use Serve, or Handler with a
// test server).
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("server: Config.Registry is required")
	}
	if cfg.StatsTenants == 0 {
		cfg.StatsTenants = 20
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	s := &Server{cfg: cfg, obs: newServerObs(cfg, metrics), mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/feedback", s.handleFeedback)
	s.mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.Stats())
	})
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	s.mux.Handle("GET /metrics", metrics.Handler())
	if cfg.Tracer != nil {
		s.mux.Handle("GET /v1/debug/traces", cfg.Tracer.Handler())
	}
	return s, nil
}

// Handler exposes the API routes (for tests and embedding), with the
// Wrap middleware applied when one is installed.
func (s *Server) Handler() http.Handler {
	if s.wrapper != nil {
		return s.wrapper(s.mux)
	}
	return s.mux
}

// Wrap installs a middleware around the whole mux — how cluster mode
// interposes its tenant router in front of every serving route. Call
// before Serve; at most one wrapper is supported (later calls replace
// earlier ones).
func (s *Server) Wrap(mw func(http.Handler) http.Handler) { s.wrapper = mw }

// Handle registers an extra route on the server's mux — how optional
// subsystems (e.g. the online FL coordinator's /v1/fl/* and /v1/model
// endpoints) join the serving process. Call before Serve.
func (s *Server) Handle(pattern string, handler http.Handler) {
	s.mux.Handle(pattern, handler)
}

// Serve binds addr (e.g. "127.0.0.1:0") and serves until Close.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listening on %s: %w", addr, err)
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.Handler()}
	go s.http.Serve(ln)
	return nil
}

// Addr reports the bound listen address (after Serve).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down gracefully.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.http.Shutdown(ctx)
}

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// User routes the request to its tenant. Required.
	User string `json:"user"`
	// Query is the text to answer. Required.
	Query string `json:"query"`
	// Session, when set, names a conversation: the query is asked with
	// the session's context chain and appended to its history. Empty
	// means a standalone query.
	Session string `json:"session,omitempty"`
}

// QueryResponse is the body of a successful query.
type QueryResponse struct {
	Response string `json:"response"`
	// Hit reports whether the response came from the tenant's cache.
	Hit bool `json:"hit"`
	// Degraded marks a hit served in cache-only degraded mode: the
	// upstream circuit breaker was open and the match cleared only the
	// relaxed threshold (τ − tau-degraded), not τ itself.
	Degraded bool `json:"degraded,omitempty"`
	// Score is the match similarity (hits only).
	Score float32 `json:"score,omitempty"`
	// Matched is the cached query that served a hit, so clients can cite
	// it in feedback reports ("" on a miss).
	Matched string `json:"matched,omitempty"`
	// LatencyMicros is the end-to-end serving time: semantic search plus,
	// on a miss, the upstream LLM time (simulated time included when the
	// upstream runs in virtual-time mode).
	LatencyMicros int64 `json:"latency_micros"`
	// SearchMicros isolates the semantic-search component.
	SearchMicros int64 `json:"search_micros"`
	// Tau is the tenant's current similarity threshold.
	Tau float32 `json:"tau"`
}

// FeedbackRequest is the body of POST /v1/feedback. Kind defaults to
// "false_hit" (§III-A.2: the user re-asked after a cache hit, i.e. the
// hit was wrong); "missed_dup" reports the inverse miss — the query
// should have been served from cache because it duplicates an earlier
// one. Query/DuplicateOf carry the texts so the FL example collector can
// derive labelled pairs; they never leave the serving process.
type FeedbackRequest struct {
	User string `json:"user"`
	// Kind is "false_hit" (default) or "missed_dup".
	Kind string `json:"kind,omitempty"`
	// Query is the probe the feedback refers to.
	Query string `json:"query,omitempty"`
	// DuplicateOf is the cached query wrongly served (false_hit) or the
	// earlier query this one duplicates (missed_dup).
	DuplicateOf string `json:"duplicate_of,omitempty"`
}

// FeedbackResponse reports the tenant's threshold after adjustment.
type FeedbackResponse struct {
	Tau float32 `json:"tau"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Aggregate ServingStats  `json:"aggregate"`
	Registry  RegistryStats `json:"registry"`
	// Residents lists per-resident-tenant serving state (traffic, index
	// tier, index rows), largest traffic first, capped by
	// Config.StatsTenants.
	Residents []ResidentStats `json:"residents,omitempty"`
	// Resilience reports admission-control state (quota buckets, AIMD
	// limiter, circuit breaker) when a Governor is configured.
	Resilience *resilience.GovernorStats `json:"resilience,omitempty"`
}

// ServingStats is the JSON view of the serving counters /metrics
// exports: each field is read from the series named beside it, so the
// two surfaces cannot disagree.
type ServingStats struct {
	Queries   int64   `json:"queries"` // meancache_queries_total, hit + miss
	Hits      int64   `json:"hits"`    // meancache_queries_total{result="hit"}
	HitRatio  float64 `json:"hit_ratio"`
	Feedbacks int64   `json:"feedbacks"` // meancache_feedbacks_total
	Errors    int64   `json:"errors"`    // meancache_request_errors_total, both routes
	// MeanMicros is the handler's mean wall time per answered query
	// (meancache_request_duration_seconds). A virtual-time upstream's
	// simulated inference is not in it; each reply's latency_micros and
	// the upstream stage histogram carry that.
	MeanMicros int64 `json:"latency_mean_micros"`
	// SearchMicros is the mean index search
	// (meancache_stage_duration_seconds{stage="search"}).
	SearchMicros int64 `json:"search_mean_micros"`
}

// ResidentStats is one resident tenant's serving-state row.
type ResidentStats struct {
	User string `json:"user"`
	// Queries and Hits count what the tenant answered since it became
	// resident.
	Queries int64 `json:"queries"`
	Hits    int64 `json:"hits"`
	// Tier is the index tier currently serving this tenant's searches.
	Tier    string `json:"tier,omitempty"`
	Entries int    `json:"entries"`
	// ArenaRows is the number of vectors the tenant's index holds.
	ArenaRows int `json:"arena_rows"`
}

// Route names for error counters.
const (
	routeQuery    = "query"
	routeFeedback = "feedback"
)

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Observability prologue: in cluster mode a forwarded request carries
	// the origin's trace in its context; otherwise this node opens one (a
	// nil trace when tracing is off; every trace call tolerates it). An
	// error path abandons the trace (a remote one stays with its forward
	// handler).
	o := s.obs
	t0 := time.Now()
	trace := obs.TraceFrom(r.Context())
	if trace == nil {
		trace = o.tracer.Start("/v1/query")
	}
	var req QueryRequest
	if err := readJSON(r, &req); err != nil {
		o.tracer.Abandon(trace)
		s.fail(w, routeQuery, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	decodeDur := time.Since(t0)
	if req.User == "" || req.Query == "" {
		o.tracer.Abandon(trace)
		s.fail(w, routeQuery, http.StatusBadRequest, "user and query are required")
		return
	}
	// Front-door admission: the tenant's token bucket is checked before
	// any per-request work (tenant activation, encoding, search) so an
	// over-quota tenant costs one map lookup, nothing more.
	if rej := s.cfg.Governor.Admit(req.User); rej != nil {
		o.tracer.Abandon(trace)
		s.reject(w, routeQuery, rej)
		return
	}
	tenant := s.cfg.Registry.Get(req.User)
	defer tenant.Release()
	var res queryResult
	if req.Session != "" {
		ts := tenant.session(req.Session)
		ts.mu.Lock()
		res.Result, res.err = ts.sess.AskContext(r.Context(), req.Query)
		ts.mu.Unlock()
	} else {
		res.Result, res.err = tenant.Client.QueryContext(r.Context(), req.Query)
	}
	if res.err != nil {
		o.tracer.Abandon(trace)
		// Shed decisions (limiter saturated, breaker open with no
		// degraded match) map to 429/503 + Retry-After; real upstream
		// failures stay 502.
		if rej, ok := resilience.AsRejection(res.err); ok {
			s.reject(w, routeQuery, rej)
			return
		}
		s.fail(w, routeQuery, http.StatusBadGateway, "querying: %v", res.err)
		return
	}
	o.countQuery(tenant, &res.Result)
	var matched string
	if res.Hit && res.Entry != nil {
		matched = res.Entry.Query
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.ObserveQuery(req.User, req.Query, res.Hit, matched, res.Score)
	}
	respondStart := time.Since(t0)
	writeJSON(w, QueryResponse{
		Response:      res.Response,
		Hit:           res.Hit,
		Degraded:      res.Degraded,
		Score:         res.Score,
		Matched:       matched,
		LatencyMicros: res.Latency.Microseconds(),
		SearchMicros:  res.SearchTime.Microseconds(),
		Tau:           tenant.Client.Tau(),
	})
	o.observeQuery(trace, req.User, &res.Result, decodeDur, respondStart, time.Since(t0))
}

// queryResult pairs a core.Result with the error from producing it, so
// the session and standalone paths share one epilogue.
type queryResult struct {
	core.Result
	err error
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req FeedbackRequest
	if err := readJSON(r, &req); err != nil {
		s.fail(w, routeFeedback, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.User == "" {
		s.fail(w, routeFeedback, http.StatusBadRequest, "user is required")
		return
	}
	kind := req.Kind
	if kind == "" {
		kind = FeedbackFalseHit
	}
	if kind != FeedbackFalseHit && kind != FeedbackMissedDup {
		s.fail(w, routeFeedback, http.StatusBadRequest, "unknown feedback kind %q", req.Kind)
		return
	}
	if kind == FeedbackMissedDup && (req.Query == "" || req.DuplicateOf == "") {
		s.fail(w, routeFeedback, http.StatusBadRequest, "missed_dup feedback requires query and duplicate_of")
		return
	}
	tenant := s.cfg.Registry.Get(req.User)
	defer tenant.Release()
	if kind == FeedbackFalseHit {
		tenant.Client.ReportFalseHit()
	} else {
		tenant.Client.ReportMissedHit()
	}
	s.obs.countFeedback()
	if s.cfg.Observer != nil {
		s.cfg.Observer.ObserveFeedback(req.User, Feedback{Kind: kind, Query: req.Query, Other: req.DuplicateOf})
	}
	writeJSON(w, FeedbackResponse{Tau: tenant.Client.Tau()})
}

// Stats is the body GET /v1/stats serves.
func (s *Server) Stats() StatsResponse {
	resp := StatsResponse{
		Aggregate: s.obs.stats(),
		Registry:  s.cfg.Registry.Stats(),
		Residents: s.residentStats(s.cfg.StatsTenants),
	}
	if s.cfg.Governor != nil {
		gs := s.cfg.Governor.Stats()
		resp.Resilience = &gs
	}
	return resp
}

// residentStats snapshots per-resident serving state: the tenant's
// traffic, the index tier answering its searches and the rows its index
// holds. Rows are sorted by queries, most first, then user ID, and
// capped at limit (≤ 0 means all) so the response stays bounded and
// deterministic.
func (s *Server) residentStats(limit int) []ResidentStats {
	var out []ResidentStats
	s.cfg.Registry.Range(func(t *Tenant) {
		c := t.Client.Cache()
		out = append(out, ResidentStats{
			User:      t.ID,
			Queries:   t.queries.Load(),
			Hits:      t.hits.Load(),
			Tier:      c.ServingTier(),
			Entries:   c.Len(),
			ArenaRows: c.IndexRows(),
		})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Queries != out[j].Queries {
			return out[i].Queries > out[j].Queries
		}
		return out[i].User < out[j].User
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// ErrorResponse is the structured JSON error body every failed request
// returns: a human-readable message, a machine-matchable code, and (for
// load-shed responses) the backoff hint mirrored by the Retry-After
// header.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is "bad_request", "internal", "upstream_error", or a shed
	// reason ("quota", "saturated", "breaker_open").
	Code string `json:"code"`
	// RetryAfterMS is the suggested backoff in milliseconds (shed
	// responses only; the Retry-After header carries it in whole seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// errorCode maps an HTTP status to the generic machine code for
// non-shed failures.
func errorCode(status int) string {
	switch {
	case status == http.StatusBadGateway:
		return "upstream_error"
	case status >= 400 && status < 500:
		return "bad_request"
	default:
		return "internal"
	}
}

func (s *Server) fail(w http.ResponseWriter, route string, code int, format string, args ...any) {
	s.obs.countError(route)
	writeError(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...), Code: errorCode(code)})
}

// reject answers a load-shed decision: 429 for per-tenant quota, 503 for
// saturation and open-breaker sheds, both with Retry-After.
func (s *Server) reject(w http.ResponseWriter, route string, rej *resilience.Rejection) {
	s.obs.countError(route)
	status := http.StatusServiceUnavailable
	if rej.Reason == resilience.ReasonQuota {
		status = http.StatusTooManyRequests
	}
	if rej.RetryAfter > 0 {
		// Retry-After is whole seconds; round up so clients never come
		// back early.
		secs := (rej.RetryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
	}
	writeError(w, status, ErrorResponse{
		Error:        rej.Error(),
		Code:         rej.Reason,
		RetryAfterMS: rej.RetryAfter.Milliseconds(),
	})
}

// writeError writes the structured JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, body ErrorResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	c := jsonCodecs.Get().(*jsonCodec)
	defer putCodec(c)
	c.buf.Reset()
	if err := c.enc.Encode(body); err != nil {
		return // headers are out; nothing useful left to do
	}
	w.Write(c.buf.Bytes())
}

// jsonCodec is a pooled buffer + encoder pair: the request lifecycle
// reads bodies into and encodes responses out of recycled buffers, so a
// warmed request performs no per-call allocation for JSON plumbing.
type jsonCodec struct {
	buf *bytes.Buffer
	enc *json.Encoder
	lim io.LimitedReader // reused per request so the cap costs no alloc
}

var jsonCodecs = sync.Pool{New: func() any {
	buf := &bytes.Buffer{}
	return &jsonCodec{buf: buf, enc: json.NewEncoder(buf)}
}}

const (
	// maxBodyBytes bounds a request body: queries and feedback are small
	// JSON documents, so anything past 1 MB is rejected rather than
	// buffered.
	maxBodyBytes = 1 << 20
	// maxPooledCodecBytes caps the buffers the codec pool retains — an
	// oversized response (a huge /v1/stats dump) must not pin its buffer
	// in the pool forever.
	maxPooledCodecBytes = 64 << 10
)

// putCodec returns c to the pool unless its buffer grew past the
// retention cap.
func putCodec(c *jsonCodec) {
	if c.buf.Cap() <= maxPooledCodecBytes {
		jsonCodecs.Put(c)
	}
}

// readJSON decodes the request body into v through a pooled buffer,
// rejecting bodies over maxBodyBytes.
func readJSON(r *http.Request, v any) error {
	c := jsonCodecs.Get().(*jsonCodec)
	defer putCodec(c)
	c.buf.Reset()
	c.lim.R, c.lim.N = r.Body, maxBodyBytes+1
	_, err := c.buf.ReadFrom(&c.lim)
	c.lim.R = nil // don't retain the body through the pool
	if err != nil {
		return err
	}
	if c.buf.Len() > maxBodyBytes {
		return fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)
	}
	return json.Unmarshal(c.buf.Bytes(), v)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	c := jsonCodecs.Get().(*jsonCodec)
	defer putCodec(c)
	c.buf.Reset()
	if err := c.enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(c.buf.Bytes())
}
