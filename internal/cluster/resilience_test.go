package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llmsim"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/sim"
)

// TestPeerBreakerShortCircuits: a peer that keeps failing forwards trips
// its circuit breaker, after which requests for its tenants skip the
// doomed network attempt and go straight to the local fallback — the
// tenant stays available the whole time. Heartbeats are parked far in
// the future so the test isolates traffic-speed detection: the ring
// keeps naming the dead peer as owner, and only the breaker stands
// between every request and a connection timeout.
func TestPeerBreakerShortCircuits(t *testing.T) {
	dir := t.TempDir()
	llm := llmsim.New(llmsim.DefaultConfig())
	h, err := StartHarness(HarnessConfig{
		Nodes:     2,
		VNodes:    64,
		Heartbeat: time.Minute, // probes never fire during the test
		DeadAfter: 1 << 20,     // the ring never removes the dead peer
		MakeNode: func(self string) (*server.Registry, *server.Server, error) {
			reg, err := server.NewRegistry(server.RegistryConfig{
				Shards:     2,
				PersistDir: dir,
				Factory: func(userID string) *core.Client {
					return core.New(core.Options{
						Encoder: &testEncoder{dim: 32},
						LLM:     llm,
						Tau:     0.9,
						TopK:    4,
					})
				},
			})
			if err != nil {
				return nil, nil, err
			}
			srv, err := server.New(server.Config{Registry: reg})
			if err != nil {
				return nil, nil, err
			}
			return reg, srv, nil
		},
		Tune: func(cfg *Config) {
			cfg.ForwardRetries = -1 // one attempt per request
			cfg.PeerBreaker = resilience.BreakerConfig{
				Window: 4, MinSamples: 2, FailureRatio: 0.5,
				OpenFor: time.Hour, // stays open for the whole test
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)

	entry := h.Nodes()[0]
	victim := h.Nodes()[1]
	client := &http.Client{Timeout: 10 * time.Second}

	// A tenant owned by the victim, reached through the entry node.
	user := ""
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("breaker-tenant-%d", i)
		if h.Owner(name) == victim.Addr {
			user = name
			break
		}
	}
	if user == "" {
		t.Fatal("no tenant hashed to the victim node")
	}
	if _, err := queryUser(client, entry.URL(), user, "healthy forward"); err != nil {
		t.Fatalf("healthy forward: %v", err)
	}

	h.Kill(1, false)

	// Every request keeps succeeding via the local fallback; the first
	// two burn real (refused) connections and trip the breaker, the rest
	// short-circuit.
	for i := 0; i < 6; i++ {
		if _, err := queryUser(client, entry.URL(), user, fmt.Sprintf("post-kill query %d", i)); err != nil {
			t.Fatalf("post-kill query %d: %v", i, err)
		}
	}
	st := entry.ClusterNode().StatusSnapshot()
	if st.BreakerSkips == 0 {
		t.Fatalf("no breaker skips recorded: %+v", st)
	}
	if st.LocalFallbacks < 6 {
		t.Fatalf("local fallbacks = %d, want >= 6", st.LocalFallbacks)
	}
	found := false
	for _, pi := range st.Peers {
		if pi.Addr == victim.Addr {
			found = true
			if pi.Breaker != "open" {
				t.Fatalf("victim peer breaker = %q, want open", pi.Breaker)
			}
		}
	}
	if !found {
		t.Fatalf("victim %s missing from peer status", victim.Addr)
	}
}

// TestHedgeVetoSuppressesDuplicate: the hedge timer normally launches a
// duplicate attempt against a slow owner; with the saturation veto
// asserted it stays a single attempt and the suppression is counted.
func TestHedgeVetoSuppressesDuplicate(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(100 * time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	owner := strings.TrimPrefix(ts.URL, "http://")

	var saturated atomic.Bool
	n := &Node{
		cfg: Config{
			ForwardTimeout: 5 * time.Second,
			HedgeAfter:     10 * time.Millisecond,
			HedgeVeto:      func() bool { return saturated.Load() },
		},
		client: ts.Client(),
		clock:  sim.Wall,
	}

	if _, err := n.forwardHedged(context.Background(), owner, "/v1/query", []byte("{}"), 0, true); err != nil {
		t.Fatalf("hedged forward: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("calls = %d, want 2 (hedge launched)", got)
	}
	if n.hedges.Load() != 1 {
		t.Fatalf("hedges = %d, want 1", n.hedges.Load())
	}

	calls.Store(0)
	saturated.Store(true)
	if _, err := n.forwardHedged(context.Background(), owner, "/v1/query", []byte("{}"), 0, true); err != nil {
		t.Fatalf("vetoed forward: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (hedge vetoed)", got)
	}
	if n.hedgesVetoed.Load() != 1 {
		t.Fatalf("hedgesVetoed = %d, want 1", n.hedgesVetoed.Load())
	}
}
