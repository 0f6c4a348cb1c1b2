package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
)

// newResilienceServer assembles a serving stack with a governor and a
// guard-wrapped upstream whose failure mode the test controls.
func newResilienceServer(t *testing.T, gcfg resilience.GovernorConfig, up *scriptedUpstream, timeout time.Duration) (*resilience.Governor, *httptest.Server) {
	t.Helper()
	gov := resilience.NewGovernor(gcfg)
	guard := resilience.NewGuard(up, gov, timeout)
	enc := &stubEncoder{dim: 32}
	reg, err := NewRegistry(RegistryConfig{
		Shards: 2,
		Factory: func(userID string) *core.Client {
			return core.New(core.Options{
				Encoder:          enc,
				LLM:              guard,
				Tau:              0.9,
				TopK:             4,
				DegradedTauDelta: 0.2,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return gov, ts
}

// scriptedUpstream fails while down is true, answers otherwise.
type scriptedUpstream struct {
	down  bool
	calls int
}

func (s *scriptedUpstream) QueryContext(ctx context.Context, q string) (string, time.Duration, error) {
	s.calls++
	if s.down {
		return "", time.Millisecond, context.DeadlineExceeded
	}
	return "up: " + q, time.Millisecond, nil
}

// postRaw posts body and returns the raw response for status/header
// assertions.
func postRaw(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeError(t *testing.T, resp *http.Response) ErrorResponse {
	t.Helper()
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("error body is not structured JSON: %v", err)
	}
	return er
}

// TestServerQuotaRejects429: an over-quota tenant gets 429 with the
// structured body and a Retry-After header; other tenants are untouched.
func TestServerQuotaRejects429(t *testing.T) {
	_, ts := newResilienceServer(t, resilience.GovernorConfig{
		Quota: resilience.QuotaConfig{Rate: 0.5, Burst: 2},
	}, &scriptedUpstream{}, 0)

	q := QueryRequest{User: "greedy", Query: "q one"}
	for i := 0; i < 2; i++ {
		resp := postRaw(t, ts.URL+"/v1/query", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-quota request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := postRaw(t, ts.URL+"/v1/query", q)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatalf("429 without Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", ra)
	}
	er := decodeError(t, resp)
	if er.Code != resilience.ReasonQuota {
		t.Fatalf("error code = %q, want %q", er.Code, resilience.ReasonQuota)
	}
	if er.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", er.RetryAfterMS)
	}

	// A different tenant is unaffected.
	other := postRaw(t, ts.URL+"/v1/query", QueryRequest{User: "quiet", Query: "hello"})
	if other.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status = %d", other.StatusCode)
	}
}

// TestServerBreakerDegradedServing: with the breaker open, cached
// near-matches are served degraded; uncached queries shed with 503 +
// Retry-After; after the upstream heals and the cool-off elapses, probes
// close the breaker and misses flow again.
func TestServerBreakerDegradedServing(t *testing.T) {
	up := &scriptedUpstream{}
	gov, ts := newResilienceServer(t, resilience.GovernorConfig{
		Breaker: resilience.BreakerConfig{
			// Ratio 0.6: the seeded success plus one failure (1/2 = 0.5)
			// stays closed; the second failure (2/3) trips.
			Window: 4, MinSamples: 2, FailureRatio: 0.6,
			OpenFor: 200 * time.Millisecond, HalfOpenProbes: 1,
		},
	}, up, 0)

	// Healthy: seed the cache.
	seed := QueryRequest{User: "u", Query: "what is meancache"}
	if resp := postRaw(t, ts.URL+"/v1/query", seed); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: status %d", resp.StatusCode)
	}

	// Upstream dies: two failed misses trip the breaker.
	up.down = true
	for i := 0; i < 2; i++ {
		resp := postRaw(t, ts.URL+"/v1/query", QueryRequest{User: "u", Query: "novel " + strconv.Itoa(i)})
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("failing miss %d: status %d, want 502", i, resp.StatusCode)
		}
		er := decodeError(t, resp)
		if er.Code != "upstream_error" {
			t.Fatalf("failing miss code = %q", er.Code)
		}
	}
	if gov.Breaker.State() != resilience.StateOpen {
		t.Fatalf("breaker not open after failures")
	}

	// Open breaker, cached query: exact match is a plain hit.
	resp := postRaw(t, ts.URL+"/v1/query", seed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached query while open: status %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Hit {
		t.Fatalf("cached query while open missed")
	}

	// Open breaker, uncached query: shed with 503 + Retry-After and the
	// breaker_open code (nothing within even the relaxed threshold).
	resp = postRaw(t, ts.URL+"/v1/query", QueryRequest{User: "u", Query: "completely different"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("uncached while open: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("503 without Retry-After")
	}
	if er := decodeError(t, resp); er.Code != resilience.ReasonUpstreamOpen {
		t.Fatalf("shed code = %q, want %q", er.Code, resilience.ReasonUpstreamOpen)
	}
	calls := up.calls

	// Upstream heals; after the cool-off one probe closes the breaker.
	up.down = false
	time.Sleep(250 * time.Millisecond)
	resp = postRaw(t, ts.URL+"/v1/query", QueryRequest{User: "u", Query: "post recovery query"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe query: status %d", resp.StatusCode)
	}
	if up.calls != calls+1 {
		t.Fatalf("probe did not reach upstream (calls %d -> %d)", calls, up.calls)
	}
	if gov.Breaker.State() != resilience.StateClosed {
		t.Fatalf("breaker did not close after successful probe: %s",
			resilience.StateName(gov.Breaker.State()))
	}
}

// TestServerStatsReportsResilience: /v1/stats carries the governor block.
func TestServerStatsReportsResilience(t *testing.T) {
	_, ts := newResilienceServer(t, resilience.GovernorConfig{
		Quota:   resilience.QuotaConfig{Rate: 100, Burst: 100},
		Limiter: resilience.LimiterConfig{MinLimit: 1, MaxLimit: 8, InitialLimit: 4},
		Breaker: resilience.BreakerConfig{Window: 8},
	}, &scriptedUpstream{}, time.Second)

	postRaw(t, ts.URL+"/v1/query", QueryRequest{User: "u", Query: "warm up"})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	r := stats.Resilience
	if r == nil {
		t.Fatalf("stats missing resilience block")
	}
	if r.Quota == nil || r.Quota.Allowed == 0 {
		t.Fatalf("quota stats = %+v, want allowed > 0", r.Quota)
	}
	if r.Limiter == nil || r.Limiter.Limit != 4 {
		t.Fatalf("limiter stats = %+v, want limit 4", r.Limiter)
	}
	if r.Breaker == nil || r.Breaker.State != "closed" {
		t.Fatalf("breaker stats = %+v, want closed", r.Breaker)
	}
}

// TestServerStructuredErrors: every failure path returns the structured
// JSON body, not plain text.
func TestServerStructuredErrors(t *testing.T) {
	_, ts := newResilienceServer(t, resilience.GovernorConfig{}, &scriptedUpstream{}, 0)
	resp := postRaw(t, ts.URL+"/v1/query", QueryRequest{User: "", Query: ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type = %q, want application/json", ct)
	}
	er := decodeError(t, resp)
	if er.Code != "bad_request" || er.Error == "" {
		t.Fatalf("error body = %+v", er)
	}
}
