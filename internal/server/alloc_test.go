package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/obs"
	"repro/internal/raceflag"
	"repro/internal/resilience"
)

type instantAllocLLM struct{}

func (instantAllocLLM) QueryContext(context.Context, string) (string, time.Duration, error) {
	return "r", 0, nil
}

type nopBody struct{ *bytes.Reader }

func (nopBody) Close() error { return nil }

type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// TestQueryHitAllocationBudget is the allocation-regression gate for the
// serving hit path: decode → tenant → encode → pruned search → respond,
// measured through the real handler with the HTTP connection machinery
// factored out. The pooled lifecycle lands this in single digits
// (measured 10 on the reference machine; the pre-pooling path was 21);
// the bound leaves slack for pool-emptying GCs without letting a
// per-request allocation regression hide.
func TestQueryHitAllocationBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("pooled buffers are intentionally dropped under -race")
	}
	m := embed.NewModel(embed.MPNetSim, 1)
	reg, err := NewRegistry(RegistryConfig{
		Factory: func(string) *core.Client {
			return core.New(core.Options{Encoder: m, LLM: instantAllocLLM{}, Tau: 0.8, TopK: 5})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	body, _ := json.Marshal(QueryRequest{User: "u", Query: "warm question"})
	rdr := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/query", rdr)
	req.Header.Set("Content-Type", "application/json")
	rc := nopBody{rdr}
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		rdr.Seek(0, 0)
		req.Body = rc
		h.ServeHTTP(w, req)
	}
	serve() // warm: populates the cache (miss) …
	serve() // … and the buffer pools (hit)
	if n := testing.AllocsPerRun(200, serve); n > 14 {
		t.Fatalf("server hit path allocates %v per request, budget 14", n)
	}
}

// newAllocServer assembles the hit-path fixture used by the alloc gates:
// a one-tenant registry behind a Server built with cfg's observability
// fields, warmed with two requests (one miss to fill, one hit to warm
// the pools), returning the serve closure to measure.
func newAllocServer(t *testing.T, metrics *obs.Registry, tracer *obs.Tracer) func() {
	t.Helper()
	return newAllocServerGov(t, metrics, tracer, nil)
}

// newAllocServerGov is newAllocServer with an admission governor.
func newAllocServerGov(t *testing.T, metrics *obs.Registry, tracer *obs.Tracer, gov *resilience.Governor) func() {
	t.Helper()
	m := embed.NewModel(embed.MPNetSim, 1)
	reg, err := NewRegistry(RegistryConfig{
		Factory: func(string) *core.Client {
			return core.New(core.Options{Encoder: m, LLM: instantAllocLLM{}, Tau: 0.8, TopK: 5})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg, Metrics: metrics, Tracer: tracer, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	body, _ := json.Marshal(QueryRequest{User: "u", Query: "warm question"})
	rdr := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/query", rdr)
	req.Header.Set("Content-Type", "application/json")
	rc := nopBody{rdr}
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		rdr.Seek(0, 0)
		req.Body = rc
		h.ServeHTTP(w, req)
	}
	serve()
	serve()
	return serve
}

// TestQueryHitAllocationBudgetTracedUnsampled proves the PR 5 budget
// holds with the full observability stack on but the request losing the
// head-sampling draw: metrics histograms record and a pooled trace is
// taken and recycled, none of which may allocate.
func TestQueryHitAllocationBudgetTracedUnsampled(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("pooled buffers are intentionally dropped under -race")
	}
	tracer := obs.NewTracer(obs.TracerConfig{
		Node:       "alloc-test",
		SampleRate: 1e-9, // effectively never head-sampled
	})
	serve := newAllocServer(t, obs.NewRegistry(), tracer)
	if n := testing.AllocsPerRun(200, serve); n > 14 {
		t.Fatalf("traced-unsampled hit path allocates %v per request, budget 14", n)
	}
}

// TestQueryHitAllocationBudgetSampled is the same gate with every
// request sampled and published — the worst-case tracing path.
func TestQueryHitAllocationBudgetSampled(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("pooled buffers are intentionally dropped under -race")
	}
	tracer := obs.NewTracer(obs.TracerConfig{
		Node:       "alloc-test",
		SampleRate: 1,
		RingSize:   8,
	})
	serve := newAllocServer(t, obs.NewRegistry(), tracer)
	for i := 0; i < 32; i++ {
		serve() // fill the trace pool past the ring size
	}
	if n := testing.AllocsPerRun(200, serve); n > 14 {
		t.Fatalf("traced-sampled hit path allocates %v per request, budget 14", n)
	}
}

// TestQueryHitAdmissionZeroExtra proves the governor's front-door quota
// check adds exactly zero allocations to the PR 5 hit-path budget: an
// admitted request on a tracked tenant costs a shard map lookup plus
// token arithmetic, nothing heap-visible.
func TestQueryHitAdmissionZeroExtra(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("pooled buffers are intentionally dropped under -race")
	}
	baseline := newAllocServer(t, nil, nil)
	governed := newAllocServerGov(t, nil, nil, resilience.NewGovernor(resilience.GovernorConfig{
		Quota:   resilience.QuotaConfig{Rate: 1e9, Burst: 1e9},
		Limiter: resilience.LimiterConfig{MinLimit: 1, MaxLimit: 64, InitialLimit: 64},
		Breaker: resilience.BreakerConfig{Window: 64},
	}))
	nBase := testing.AllocsPerRun(500, baseline)
	nGov := testing.AllocsPerRun(500, governed)
	if nGov != nBase {
		t.Fatalf("governed hit path allocates %v per request, baseline %v — admission must add 0", nGov, nBase)
	}
}

// TestQueryHitTracingDisabledZeroExtra proves -trace-sample 0 costs
// exactly nothing: a disabled tracer is a nil pointer, so the hit path's
// allocation count must equal the no-observability baseline.
func TestQueryHitTracingDisabledZeroExtra(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("pooled buffers are intentionally dropped under -race")
	}
	baseline := newAllocServer(t, nil, nil)
	disabled := newAllocServer(t, nil, obs.NewTracer(obs.TracerConfig{SampleRate: 0}))
	nBase := testing.AllocsPerRun(500, baseline)
	nOff := testing.AllocsPerRun(500, disabled)
	if nOff != nBase {
		t.Fatalf("hit path with -trace-sample 0 allocates %v per request, baseline %v — want identical", nOff, nBase)
	}
}
