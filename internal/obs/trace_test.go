package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestTracerDisabledIsNil(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRate: 0})
	if tr != nil {
		t.Fatalf("sample rate 0 should yield a nil tracer")
	}
	if tr.Enabled() {
		t.Fatalf("nil tracer reports enabled")
	}
	// Every method must be a no-op on nil.
	tc := tr.Start("/v1/query")
	if tc != nil {
		t.Fatalf("nil tracer produced a trace")
	}
	tc.Add(SpanDecode, 0, time.Microsecond)
	tr.Finish(tc, time.Millisecond)
	tr.Release(tc)
	if got := tr.Recent(); got != nil {
		t.Fatalf("nil tracer has recent traces: %v", got)
	}
}

func TestTracerHeadSampling(t *testing.T) {
	tr := NewTracer(TracerConfig{Node: "n1", SampleRate: 0.25, RingSize: 64})
	published := 0
	for i := 0; i < 100; i++ {
		tc := tr.Start("/v1/query")
		if tc == nil {
			t.Fatalf("enabled tracer returned nil trace")
		}
		tc.Add(SpanDecode, 0, time.Microsecond)
		if tc.Sampled() {
			published++
		}
		tr.Finish(tc, 100*time.Microsecond)
	}
	if published != 25 {
		t.Fatalf("sampled %d of 100 at rate 0.25, want exactly 25 (deterministic)", published)
	}
	_, pub, slow := tr.Stats()
	if pub != 25 || slow != 0 {
		t.Fatalf("stats published=%d slow=%d, want 25, 0", pub, slow)
	}
	if got := len(tr.Recent()); got != 25 {
		t.Fatalf("ring holds %d traces, want 25", got)
	}
}

func TestTracerSlowCapture(t *testing.T) {
	// Sampling rate so low nothing head-samples in this test; only the
	// slow rule publishes.
	tr := NewTracer(TracerConfig{Node: "n1", SampleRate: 1e-9, SlowThreshold: 10 * time.Millisecond})
	fast := tr.Start("/v1/query")
	tr.Finish(fast, time.Millisecond)
	slowT := tr.Start("/v1/query")
	slowT.Add(SpanUpstream, 0, 40*time.Millisecond)
	tr.Finish(slowT, 41*time.Millisecond)
	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("ring holds %d traces, want 1 (the slow one)", len(recent))
	}
	if !recent[0].Slow || recent[0].TotalMicros != 41000 {
		t.Fatalf("slow trace snapshot wrong: %+v", recent[0])
	}
	_, pub, slow := tr.Stats()
	if pub != 1 || slow != 1 {
		t.Fatalf("stats published=%d slow=%d, want 1, 1", pub, slow)
	}
}

func TestTraceSpanCapAndRecycle(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRate: 1, RingSize: 2})
	tc := tr.Start("/p")
	for i := 0; i < MaxSpans+5; i++ {
		tc.Add(SpanEncode, 0, time.Microsecond)
	}
	if len(tc.Spans()) != MaxSpans {
		t.Fatalf("span cap not enforced: %d", len(tc.Spans()))
	}
	first := tc
	tr.Finish(tc, time.Millisecond)
	// Publish two more; the first trace must be evicted, reset, and
	// become reusable through the pool.
	tr.Finish(tr.Start("/p"), time.Millisecond)
	tr.Finish(tr.Start("/p"), time.Millisecond)
	reused := tr.Start("/p")
	if reused == first && len(reused.Spans()) != 0 {
		t.Fatalf("recycled trace kept %d spans", len(reused.Spans()))
	}
}

func TestTracerStartFinishAllocFree(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRate: 1, RingSize: 8})
	// Warm the pool: ring (8) + in-flight.
	for i := 0; i < 32; i++ {
		tr.Finish(tr.Start("/p"), time.Millisecond)
	}
	n := testing.AllocsPerRun(500, func() {
		tc := tr.Start("/p")
		tc.Add(SpanDecode, 0, time.Microsecond)
		s := tc.Add(SpanSearch, time.Microsecond, 50*time.Microsecond)
		s.Tier = TierFlat
		s.Candidates = 3
		tr.Finish(tc, 60*time.Microsecond)
	})
	if n != 0 {
		t.Fatalf("traced request allocated %v per op, want 0", n)
	}
}

func TestRemoteTraceStitching(t *testing.T) {
	origin := NewTracer(TracerConfig{Node: "a:1", SampleRate: 1, RingSize: 8})
	owner := NewTracer(TracerConfig{Node: "b:2", SampleRate: 1e-9, RingSize: 8})

	ot := origin.Start("/v1/query")
	ot.User = "u1"
	ot.Add(SpanDecode, 0, 5*time.Microsecond)

	// Owner side: remote trace keyed by the origin's ID, never published
	// on the owner.
	rt := owner.StartRemote(ot.ID, "/v1/query")
	rt.Add(SpanEncode, 0, 200*time.Microsecond)
	sp := rt.Add(SpanSearch, 200*time.Microsecond, 80*time.Microsecond)
	sp.Tier = TierIVF
	sp.Candidates = 7
	rt.Add(SpanUpstream, 300*time.Microsecond, 2*time.Millisecond)
	owner.Finish(rt, 3*time.Millisecond)
	blob := AppendSpans(nil, rt.Spans())
	owner.Release(rt)
	if got := len(owner.Recent()); got != 0 {
		t.Fatalf("remote trace published on owner: %d traces", got)
	}

	spans, err := DecodeSpans(blob)
	if err != nil {
		t.Fatal(err)
	}
	ot.Add(SpanForward, 5*time.Microsecond, 3*time.Millisecond)
	ot.AddRemote("b:2", spans)
	origin.Finish(ot, 3100*time.Microsecond)

	recent := origin.Recent()
	if len(recent) != 1 {
		t.Fatalf("origin ring holds %d traces, want 1", len(recent))
	}
	tr := recent[0]
	kinds := map[string]SpanSnapshot{}
	for _, s := range tr.Spans {
		kinds[s.Kind] = s
	}
	for _, want := range []string{"decode", "forward", "encode", "search", "upstream"} {
		if _, ok := kinds[want]; !ok {
			t.Fatalf("stitched trace missing %s span: %+v", want, tr.Spans)
		}
	}
	if kinds["search"].Node != "b:2" || kinds["search"].Tier != "ivf" || kinds["search"].Candidates != 7 {
		t.Fatalf("remote search span lost attribution: %+v", kinds["search"])
	}
	if kinds["forward"].Node != "" {
		t.Fatalf("local forward span has node attribution: %+v", kinds["forward"])
	}
}

func TestSpanBlobRejectsCorrupt(t *testing.T) {
	spans := []Span{{Kind: SpanSearch, Tier: TierIVF, Candidates: 4, Start: time.Microsecond, Dur: time.Millisecond}}
	blob := AppendSpans(nil, spans)
	got, err := DecodeSpans(blob)
	if err != nil || len(got) != 1 || got[0] != spans[0] {
		t.Fatalf("round trip: %v %v", got, err)
	}
	for name, b := range map[string][]byte{
		"empty":     {},
		"short":     blob[:len(blob)-1],
		"long":      append(append([]byte(nil), blob...), 0),
		"bad count": {0xff, 0xff},
	} {
		if _, err := DecodeSpans(b); err == nil {
			t.Errorf("%s: decode accepted corrupt blob", name)
		}
	}
}

func TestTraceContext(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRate: 1})
	tc := tr.Start("/p")
	ctx := ContextWithTrace(context.Background(), tc)
	if got := TraceFrom(ctx); got != tc {
		t.Fatalf("TraceFrom = %v, want %v", got, tc)
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("TraceFrom(empty) = %v, want nil", got)
	}
}

func TestTracesHandler(t *testing.T) {
	tr := NewTracer(TracerConfig{Node: "n1", SampleRate: 1, RingSize: 4})
	tc := tr.Start("/v1/query")
	tc.Hit = true
	tc.Status = 200
	s := tc.Add(SpanSearch, 0, 90*time.Microsecond)
	s.Tier = TierFlat
	tr.Finish(tc, 100*time.Microsecond)

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/traces", nil))
	var body struct {
		Traces []TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("handler returned invalid JSON: %v", err)
	}
	if len(body.Traces) != 1 || !body.Traces[0].Hit || body.Traces[0].Spans[0].Tier != "flat" {
		t.Fatalf("handler body wrong: %+v", body)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRate: 0.5, SlowThreshold: time.Nanosecond, RingSize: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tc := tr.Start("/p")
				tc.Add(SpanDecode, 0, time.Microsecond)
				tr.Finish(tc, time.Microsecond)
				if i%50 == 0 {
					tr.Recent()
				}
			}
		}()
	}
	wg.Wait()
	started, _, _ := tr.Stats()
	if started != 4000 {
		t.Fatalf("started = %d, want 4000", started)
	}
}
