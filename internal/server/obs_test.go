package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/llmsim"
	"repro/internal/obs"
	"repro/internal/resilience"
)

type slowObsLLM struct{ d time.Duration }

func (l slowObsLLM) Query(q string) (string, time.Duration) { return "answer:" + q, l.d }

// TestServerObservability drives the full instrumented request path and
// checks all three observability surfaces: /metrics (parseable, with the
// expected families), /v1/stats (the same counts, and the resident row's
// traffic, tier and index rows), and /v1/debug/traces (span taxonomy per
// request kind).
func TestServerObservability(t *testing.T) {
	m := embed.NewModel(embed.MPNetSim, 7)
	reg, err := NewRegistry(RegistryConfig{
		Factory: func(string) *core.Client {
			return core.New(core.Options{Encoder: m, LLM: slowObsLLM{d: time.Millisecond}, Tau: 0.8, TopK: 5})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerConfig{Node: "test-node", SampleRate: 1, RingSize: 16})
	srv, err := New(Config{Registry: reg, Metrics: metrics, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	post := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec
	}
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}

	if rec := post("/v1/query", `{"user":"u1","query":"what is a cache"}`); rec.Code != 200 {
		t.Fatalf("miss query: %d %s", rec.Code, rec.Body.String())
	}
	if rec := post("/v1/query", `{"user":"u1","query":"what is a cache"}`); rec.Code != 200 {
		t.Fatalf("hit query: %d %s", rec.Code, rec.Body.String())
	}
	post("/v1/feedback", `{"user":"u1","kind":"false_hit"}`)
	post("/v1/query", `{"user":"u1"}`) // error: missing query

	// /metrics must parse under the in-repo linter and carry the serving
	// families with the right values.
	exp, err := obs.ParseExposition(get("/metrics"))
	if err != nil {
		t.Fatalf("metrics exposition invalid: %v", err)
	}
	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"meancache_queries_total", map[string]string{"result": "hit"}, 1},
		{"meancache_queries_total", map[string]string{"result": "miss"}, 1},
		{"meancache_feedbacks_total", nil, 1},
		{"meancache_request_errors_total", map[string]string{"route": "query"}, 1},
		{"meancache_search_duration_seconds_count", map[string]string{"tier": "flat"}, 2},
		{"meancache_stage_duration_seconds_count", map[string]string{"stage": "upstream"}, 1},
		{"meancache_stage_duration_seconds_count", map[string]string{"stage": "encode"}, 2},
		{"meancache_request_duration_seconds_count", nil, 2},
		{"meancache_registry_resident_tenants", nil, 1},
		{"meancache_arena_rows", nil, 1},
	}
	for _, c := range checks {
		if v, ok := exp.Value(c.name, c.labels); !ok || v != c.want {
			t.Errorf("%s%v = %v (present %v), want %v", c.name, c.labels, v, ok, c.want)
		}
	}

	// /v1/stats: the same counts, and the resident's traffic, tier and
	// index rows.
	var stats StatsResponse
	if err := json.Unmarshal(get("/v1/stats"), &stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if a := stats.Aggregate; a.Queries != 2 || a.Hits != 1 || a.Feedbacks != 1 || a.Errors != 1 || a.MeanMicros <= 0 {
		t.Fatalf("aggregate wrong: %+v", a)
	}
	if len(stats.Residents) != 1 {
		t.Fatalf("residents = %+v, want one row", stats.Residents)
	}
	res := stats.Residents[0]
	if res.User != "u1" || res.Queries != 2 || res.Hits != 1 || res.Tier != "flat" || res.Entries != 1 || res.ArenaRows < 1 {
		t.Fatalf("resident row wrong: %+v", res)
	}

	// /v1/debug/traces: the miss trace must carry the full taxonomy, the
	// hit trace must not have upstream/cachefill spans.
	var traces struct {
		Traces []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal(get("/v1/debug/traces"), &traces); err != nil {
		t.Fatalf("traces: %v", err)
	}
	if len(traces.Traces) != 2 {
		t.Fatalf("published %d traces, want 2 (the error request must not publish)", len(traces.Traces))
	}
	spanKinds := func(tr obs.TraceSnapshot) map[string]obs.SpanSnapshot {
		out := map[string]obs.SpanSnapshot{}
		for _, s := range tr.Spans {
			out[s.Kind] = s
		}
		return out
	}
	hit, miss := traces.Traces[0], traces.Traces[1] // newest first
	if !hit.Hit || miss.Hit {
		t.Fatalf("trace order/outcome wrong: %+v / %+v", hit, miss)
	}
	mk := spanKinds(miss)
	for _, want := range []string{"decode", "encode", "search", "upstream", "cachefill", "respond"} {
		if _, ok := mk[want]; !ok {
			t.Errorf("miss trace missing %s span: %+v", want, miss.Spans)
		}
	}
	hk := spanKinds(hit)
	if _, ok := hk["upstream"]; ok {
		t.Errorf("hit trace has an upstream span: %+v", hit.Spans)
	}
	if hk["search"].Tier != "flat" || hk["search"].Candidates < 1 {
		t.Errorf("hit search span wrong: %+v", hk["search"])
	}
	if miss.Node != "test-node" || miss.User != "u1" {
		t.Errorf("trace identity wrong: %+v", miss)
	}
}

// TestStatsMatchMetrics pins the single source of every serving number:
// a server given no metrics registry still serves /metrics, and after a
// concurrent mix of every outcome (misses, hits, session asks, both
// feedback kinds, 400s and a 429 quota shed) each /v1/stats aggregate
// field equals the /metrics samples it is derived from, the resident
// rows add up to the aggregate, and both agree with what clients saw.
func TestStatsMatchMetrics(t *testing.T) {
	const (
		users   = 4
		workers = 2 * users // two goroutines share each tenant
		burst   = 8         // quota tokens per tenant, none refilled during the test
	)
	gov := resilience.NewGovernor(resilience.GovernorConfig{
		Quota: resilience.QuotaConfig{Rate: 1e-6, Burst: burst},
	})
	enc := &stubEncoder{dim: 32}
	llm := llmsim.New(llmsim.DefaultConfig())
	reg, err := NewRegistry(RegistryConfig{
		Shards: 4,
		Factory: func(string) *core.Client {
			return core.New(core.Options{Encoder: enc, LLM: llm, Tau: 0.9, TopK: 4, FeedbackStep: 0.01})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg, Governor: gov, StatsTenants: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Requests go straight into the handler: when ServeHTTP returns, the
	// request's histograms are observed too, so the surfaces are quiescent
	// once every worker is done.
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}

	var mu sync.Mutex
	var answered, hits, feedbacks, errs int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", g/2)
			var a, h, f, e int64
			for i := 0; i < burst/2; i++ {
				body := fmt.Sprintf(`{"user":%q,"query":"question %d"}`, user, i/2) // asked twice: miss, then hit
				if i%4 == 3 {
					body = fmt.Sprintf(`{"user":%q,"query":"turn %d","session":"s%d"}`, user, i, g)
				}
				rec := serve("POST", "/v1/query", body)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d: %s", body, rec.Code, rec.Body)
					continue
				}
				var qr QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
					t.Error(err)
				}
				a++
				if qr.Hit {
					h++
				}
			}
			for _, fb := range []string{
				fmt.Sprintf(`{"user":%q}`, user),
				fmt.Sprintf(`{"user":%q,"kind":"missed_dup","query":"question 1","duplicate_of":"question 0"}`, user),
			} {
				if rec := serve("POST", "/v1/feedback", fb); rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", fb, rec.Code)
				}
				f++
			}
			for _, bad := range []struct{ path, body string }{
				{"/v1/query", `{"user":"` + user + `"}`},
				{"/v1/query", `not json`},
				{"/v1/feedback", `{"user":"` + user + `","kind":"maybe"}`},
			} {
				if rec := serve("POST", bad.path, bad.body); rec.Code != http.StatusBadRequest {
					t.Errorf("%s %s: status %d, want 400", bad.path, bad.body, rec.Code)
				}
				e++
			}
			mu.Lock()
			answered, hits, feedbacks, errs = answered+a, hits+h, feedbacks+f, errs+e
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if rec := serve("POST", "/v1/query", `{"user":"user-0","query":"one too many"}`); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota query: status %d, want 429", rec.Code)
	}
	errs++

	var st StatsResponse
	if err := json.Unmarshal(serve("GET", "/v1/stats", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	rec := serve("GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics without Config.Metrics: status %d", rec.Code)
	}
	exp, err := obs.ParseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("metrics exposition invalid: %v", err)
	}
	sample := func(name string, labels ...string) float64 {
		var m map[string]string
		if len(labels) == 2 {
			m = map[string]string{labels[0]: labels[1]}
		}
		v, ok := exp.Value(name, m)
		if !ok {
			t.Errorf("/metrics lacks %s%v", name, m)
		}
		return v
	}
	mean := func(hist string, labels ...string) int64 {
		return int64(sample(hist+"_sum", labels...) / sample(hist+"_count", labels...) * 1e6)
	}
	hit, miss := sample("meancache_queries_total", "result", "hit"), sample("meancache_queries_total", "result", "miss")
	a := st.Aggregate
	for _, c := range []struct {
		field     string
		got, want any
	}{
		{"queries", a.Queries, int64(hit + miss)},
		{"hits", a.Hits, int64(hit)},
		{"hit_ratio", a.HitRatio, hit / (hit + miss)},
		{"feedbacks", a.Feedbacks, int64(sample("meancache_feedbacks_total"))},
		{"errors", a.Errors, int64(sample("meancache_request_errors_total", "route", "query") +
			sample("meancache_request_errors_total", "route", "feedback"))},
		{"latency_mean_micros", a.MeanMicros, mean("meancache_request_duration_seconds")},
		{"search_mean_micros", a.SearchMicros, mean("meancache_stage_duration_seconds", "stage", "search")},
		{"queries (clients)", a.Queries, answered},
		{"hits (clients)", a.Hits, hits},
		{"feedbacks (clients)", a.Feedbacks, feedbacks},
		{"errors (clients)", a.Errors, errs},
		{"request durations observed", int64(sample("meancache_request_duration_seconds_count")), answered},
	} {
		if c.got != c.want {
			t.Errorf("aggregate %s = %v, want %v", c.field, c.got, c.want)
		}
	}
	var rowQueries, rowHits int64
	for _, r := range st.Residents {
		rowQueries += r.Queries
		rowHits += r.Hits
	}
	if len(st.Residents) != users || rowQueries != a.Queries || rowHits != a.Hits {
		t.Errorf("%d resident rows sum to %d queries / %d hits, want %d rows, %d / %d",
			len(st.Residents), rowQueries, rowHits, users, a.Queries, a.Hits)
	}
}

// statsOnWrite is a ResponseWriter whose first Write reads the server's
// stats: what a client already holding its reply would find there.
type statsOnWrite struct {
	discardWriter
	srv  *Server
	seen *StatsResponse
}

func (w *statsOnWrite) Write(p []byte) (int, error) {
	if w.seen == nil {
		st := w.srv.Stats()
		w.seen = &st
	}
	return len(p), nil
}

// TestQueryCountedBeforeReply: a query is counted, in the totals and on
// its tenant's row, before its reply is written, so a client that reads
// /v1/stats after its answer (bench reconciles exactly that) never finds
// it missing.
func TestQueryCountedBeforeReply(t *testing.T) {
	srv, _ := newTestServer(t)
	for i, wantHits := range []int64{0, 1} {
		w := &statsOnWrite{discardWriter: discardWriter{h: make(http.Header)}, srv: srv}
		req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"user":"alice","query":"counted before the reply"}`))
		srv.Handler().ServeHTTP(w, req)
		if w.seen == nil {
			t.Fatalf("query %d wrote no reply", i+1)
		}
		queries := int64(i + 1)
		if a := w.seen.Aggregate; a.Queries != queries || a.Hits != wantHits {
			t.Errorf("query %d: aggregate at reply time %d queries / %d hits, want %d / %d", i+1, a.Queries, a.Hits, queries, wantHits)
		}
		if r := w.seen.Residents; len(r) != 1 || r[0].Queries != queries || r[0].Hits != wantHits {
			t.Errorf("query %d: resident rows at reply time %+v, want alice at %d / %d", i+1, r, queries, wantHits)
		}
	}
}

// TestBatcherObsHooks covers the queue-depth and batch-size hooks the
// metrics layer consumes.
func TestBatcherObsHooks(t *testing.T) {
	m := embed.NewModel(embed.MPNetSim, 3)
	b := NewBatcher(m, BatcherConfig{MaxBatch: 8})
	defer b.Close()
	metrics := obs.NewRegistry()
	registerBatcherMetrics(metrics, b)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func(i int) {
			b.Encode("query " + string(rune('a'+i)))
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	h := metrics.Histogram("meancache_batch_size", "Dispatched encode batch sizes.", obs.DefBatchBounds)
	if h.Count() == 0 {
		t.Fatalf("batch-size histogram saw no batches")
	}
	if b.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", b.QueueDepth())
	}
}
