package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/obs"
)

type slowObsLLM struct{ d time.Duration }

func (l slowObsLLM) Query(q string) (string, time.Duration) { return "answer:" + q, l.d }

// TestServerObservability drives the full instrumented request path and
// checks all three observability surfaces: /metrics (parseable, with the
// expected families), the extended /v1/stats (tier, arena, collector
// saturation), and /v1/debug/traces (span taxonomy per request kind).
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
		{"meancache_collector_tracked_tenants", nil, 1},
		{"meancache_arena_rows", nil, 1},
	}
	for _, c := range checks {
		if v, ok := exp.Value(c.name, c.labels); !ok || v != c.want {
			t.Errorf("%s%v = %v (present %v), want %v", c.name, c.labels, v, ok, c.want)
		}
	}

	// Extended /v1/stats: collector saturation state and per-resident
	// tier/arena rows.
	var stats StatsResponse
	if err := json.Unmarshal(get("/v1/stats"), &stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Collector.TrackedTenants != 1 || stats.Collector.Saturated ||
		stats.Collector.MaxTrackedTenants != maxTrackedTenants {
		t.Fatalf("collector status wrong: %+v", stats.Collector)
	}
	if len(stats.Residents) != 1 {
		t.Fatalf("residents = %+v, want one row", stats.Residents)
	}
	res := stats.Residents[0]
	if res.User != "u1" || res.Tier != "flat" || res.Entries != 1 || res.ArenaRows < 1 {
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

// TestBatcherObsHooks covers the queue-depth and batch-size hooks the
// metrics layer consumes.
func TestBatcherObsHooks(t *testing.T) {
	m := embed.NewModel(embed.MPNetSim, 3)
	b := NewBatcher(m, BatcherConfig{MaxBatch: 8})
	defer b.Close()
	metrics := obs.NewRegistry()
	registerBatcherMetrics(metrics, encodeBatcherNames, b)
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
