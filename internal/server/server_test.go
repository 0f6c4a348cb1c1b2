package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/llmsim"
)

// newTestServer assembles a full serving stack: stub encoder behind a
// micro-batcher, virtual-time llmsim upstream, sharded registry.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	enc := &stubEncoder{dim: 32}
	batcher := NewBatcher(enc, BatcherConfig{MaxBatch: 16})
	t.Cleanup(batcher.Close)
	llm := llmsim.New(llmsim.DefaultConfig())
	reg, err := NewRegistry(RegistryConfig{
		Shards: 4,
		Factory: func(userID string) *core.Client {
			return core.New(core.Options{
				Encoder:      batcher,
				LLM:          llm,
				Tau:          0.9,
				TopK:         4,
				FeedbackStep: 0.01,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg, Batcher: batcher})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON[T any](t *testing.T, url string, body any) T {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out T
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestServerQueryMissThenHit(t *testing.T) {
	_, ts := newTestServer(t)
	q := QueryRequest{User: "alice", Query: "how does secure aggregation work"}
	first := postJSON[QueryResponse](t, ts.URL+"/v1/query", q)
	if first.Hit {
		t.Fatal("first query hit an empty cache")
	}
	if first.Response == "" {
		t.Fatal("miss returned empty response: upstream proxying failed")
	}
	second := postJSON[QueryResponse](t, ts.URL+"/v1/query", q)
	if !second.Hit {
		t.Fatal("repeated query missed")
	}
	if second.Response != first.Response {
		t.Errorf("hit response %q differs from cached %q", second.Response, first.Response)
	}
	// The miss paid (simulated) LLM time; the hit must not.
	if second.LatencyMicros >= first.LatencyMicros {
		t.Errorf("hit latency %dµs not below miss latency %dµs", second.LatencyMicros, first.LatencyMicros)
	}
}

func TestServerTenantsAreIsolated(t *testing.T) {
	_, ts := newTestServer(t)
	q := "what is a semantic cache"
	postJSON[QueryResponse](t, ts.URL+"/v1/query", QueryRequest{User: "alice", Query: q})
	// Bob asks the same text: his cache is empty, so it must miss.
	got := postJSON[QueryResponse](t, ts.URL+"/v1/query", QueryRequest{User: "bob", Query: q})
	if got.Hit {
		t.Error("bob hit on alice's cached entry: tenant isolation broken")
	}
}

func TestServerSessionContext(t *testing.T) {
	_, ts := newTestServer(t)
	ask := func(sess, q string) QueryResponse {
		return postJSON[QueryResponse](t, ts.URL+"/v1/query",
			QueryRequest{User: "alice", Query: q, Session: sess})
	}
	ask("s1", "tell me about model compression")
	ask("s1", "how does it affect accuracy")
	// Same conversation replayed in a new session: both turns should hit,
	// the follow-up because its context chain matches.
	r1 := ask("s2", "tell me about model compression")
	r2 := ask("s2", "how does it affect accuracy")
	if !r1.Hit || !r2.Hit {
		t.Errorf("replayed conversation: hits = %v,%v, want true,true", r1.Hit, r2.Hit)
	}
	// The follow-up standalone (no context) must NOT reuse the contextual
	// entry (Algorithm 1's context check).
	r3 := postJSON[QueryResponse](t, ts.URL+"/v1/query",
		QueryRequest{User: "alice", Query: "how does it affect accuracy"})
	if r3.Hit {
		t.Error("standalone query hit a contextual entry despite empty context")
	}
}

func TestServerFeedbackRaisesTau(t *testing.T) {
	_, ts := newTestServer(t)
	before := postJSON[QueryResponse](t, ts.URL+"/v1/query",
		QueryRequest{User: "alice", Query: "warmup"})
	fb := postJSON[FeedbackResponse](t, ts.URL+"/v1/feedback", FeedbackRequest{User: "alice"})
	if fb.Tau <= before.Tau {
		t.Errorf("feedback tau %v not above %v", fb.Tau, before.Tau)
	}
}

func TestServerStatsAndHealth(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		postJSON[QueryResponse](t, ts.URL+"/v1/query",
			QueryRequest{User: "alice", Query: "the same question"})
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Aggregate.Queries != 3 || st.Aggregate.Hits != 2 {
		t.Errorf("aggregate = %d queries / %d hits, want 3/2", st.Aggregate.Queries, st.Aggregate.Hits)
	}
	if len(st.Residents) != 1 || st.Residents[0].User != "alice" || st.Residents[0].Queries != 3 || st.Residents[0].Hits != 2 {
		t.Errorf("resident rows wrong: %+v", st.Residents)
	}
	if st.Registry.Resident != 1 {
		t.Errorf("registry resident = %d, want 1", st.Registry.Resident)
	}
	if st.Batcher == nil || st.Batcher.Requests == 0 {
		t.Error("batcher stats missing from /v1/stats")
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv, ts := newTestServer(t)
	for _, body := range []string{`{}`, `{"user":"a"}`, `{"query":"q"}`, `not json`} {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if agg := srv.Stats().Aggregate; agg.Errors != 4 || agg.Queries != 0 {
		t.Errorf("aggregate = %+v, want 4 errors and no queries", agg)
	}
}

// TestServerConcurrentOneTenant hammers a single tenant with parallel
// queries (lookup+insert), session asks, and feedback — the single-tenant
// half of the -race concurrency requirement.
func TestServerConcurrentOneTenant(t *testing.T) {
	_, ts := newTestServer(t)
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch i % 3 {
				case 0:
					postJSON[QueryResponse](t, ts.URL+"/v1/query",
						QueryRequest{User: "alice", Query: fmt.Sprintf("question %d", i%10)})
				case 1:
					postJSON[QueryResponse](t, ts.URL+"/v1/query",
						QueryRequest{User: "alice", Query: fmt.Sprintf("follow-up %d", i%5),
							Session: fmt.Sprintf("sess-%d", w)})
				default:
					postJSON[FeedbackResponse](t, ts.URL+"/v1/feedback",
						FeedbackRequest{User: "alice"})
				}
			}
		}(w)
	}
	wg.Wait()
	agg := postStats(t, ts)
	want := int64(workers * perWorker * 2 / 3)
	if agg.Aggregate.Queries < want {
		t.Errorf("aggregate queries = %d, want ≥ %d", agg.Aggregate.Queries, want)
	}
	if agg.Aggregate.Errors != 0 {
		t.Errorf("errors under concurrency: %d", agg.Aggregate.Errors)
	}
}

// TestServerConcurrentCrossTenant drives many tenants at once, which also
// exercises the cross-tenant encode batching path.
func TestServerConcurrentCrossTenant(t *testing.T) {
	srv, ts := newTestServer(t)
	const users, perUser = 32, 8
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", u)
			for i := 0; i < perUser; i++ {
				postJSON[QueryResponse](t, ts.URL+"/v1/query",
					QueryRequest{User: user, Query: fmt.Sprintf("shared question %d", i%4)})
			}
		}(u)
	}
	wg.Wait()
	st := postStats(t, ts)
	if st.Aggregate.Queries != users*perUser {
		t.Errorf("aggregate queries = %d, want %d", st.Aggregate.Queries, users*perUser)
	}
	if st.Registry.Resident != users {
		t.Errorf("resident tenants = %d, want %d", st.Registry.Resident, users)
	}
	if bs := srv.cfg.Batcher.Stats(); bs.Coalesced == 0 {
		t.Logf("note: no cross-tenant coalescing observed (timing-dependent); batches=%d requests=%d",
			bs.Batches, bs.Requests)
	}
}

func postStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}
