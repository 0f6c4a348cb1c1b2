package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llmsim"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/sim"
)

// rawReply is one HTTP answer as the client saw it.
type rawReply struct {
	status int
	header http.Header
	body   string
}

func postRaw(t *testing.T, client *http.Client, url string, body string, header http.Header) rawReply {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rawReply{status: resp.StatusCode, header: resp.Header, body: string(raw)}
}

// startServingHarness boots an n-node harness whose nodes each serve
// under server.Config cfg (Registry filled in) and, when tracing is set,
// a sample-everything tracer shared by the node's server and cluster
// layer.
func startServingHarness(t *testing.T, n int, cfg server.Config, tracing bool) *Harness {
	t.Helper()
	dir := t.TempDir()
	llm := llmsim.New(llmsim.DefaultConfig())
	tracers := map[string]*obs.Tracer{}
	h, err := StartHarness(HarnessConfig{
		Nodes:     n,
		VNodes:    64,
		Heartbeat: 25 * time.Millisecond,
		DeadAfter: 2,
		MakeNode: func(self string) (*server.Registry, *server.Server, error) {
			reg, err := server.NewRegistry(server.RegistryConfig{
				Shards:     2,
				PersistDir: dir,
				Factory: func(string) *core.Client {
					return core.New(core.Options{Encoder: &testEncoder{dim: 32}, LLM: llm, Tau: 0.9, TopK: 4})
				},
			})
			if err != nil {
				return nil, nil, err
			}
			c := cfg
			c.Registry = reg
			if tracing {
				c.Tracer = obs.NewTracer(obs.TracerConfig{Node: self, SampleRate: 1, RingSize: 16})
				tracers[self] = c.Tracer
			}
			srv, err := server.New(c)
			if err != nil {
				return nil, nil, err
			}
			return reg, srv, nil
		},
		Tune: func(c *Config) { c.Tracer = tracers[c.Self] },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestClusterForwardRelaysOwnerReply: a reply relayed through a peer is
// the owner's reply. With the owner's quota spent, the same request sent
// to the owner directly and through the other node must come back with
// the same status, Retry-After, Content-Type and body, and the relayed
// one names the node that served it. Both nodes run the quota (the
// entry's is never consulted for a forwarded request); its clock is
// virtual, so the two rejections carry the same backoff to the
// millisecond.
func TestClusterForwardRelaysOwnerReply(t *testing.T) {
	gov := resilience.NewGovernor(resilience.GovernorConfig{
		Quota: resilience.QuotaConfig{Rate: 0.01, Burst: 1, Clock: sim.NewVirtual()},
	})
	h := startServingHarness(t, 2, server.Config{Governor: gov}, false)
	client := &http.Client{Timeout: 10 * time.Second}

	user := "relay-probe-user"
	owner := h.Owner(user)
	var entry string
	for _, hn := range h.Nodes() {
		if hn.Addr != owner {
			entry = hn.Addr
		}
	}
	body := fmt.Sprintf(`{"user":%q,"query":"what does a relayed shed look like"}`, user)
	if first := postRaw(t, client, "http://"+owner+"/v1/query", body, nil); first.status != http.StatusOK {
		t.Fatalf("first query: status %d: %s", first.status, first.body)
	}
	direct := postRaw(t, client, "http://"+owner+"/v1/query", body, nil)
	relayed := postRaw(t, client, "http://"+entry+"/v1/query", body, nil)

	if direct.status != http.StatusTooManyRequests || direct.header.Get("Retry-After") == "" {
		t.Fatalf("direct reply is not a quota shed: status %d, Retry-After %q", direct.status, direct.header.Get("Retry-After"))
	}
	if relayed.status != direct.status {
		t.Errorf("relayed status %d, direct %d", relayed.status, direct.status)
	}
	for _, k := range []string{"Retry-After", "Content-Type"} {
		if got, want := relayed.header.Get(k), direct.header.Get(k); got != want {
			t.Errorf("relayed %s = %q, direct %q", k, got, want)
		}
	}
	if relayed.body != direct.body {
		t.Errorf("relayed body %q, direct %q", relayed.body, direct.body)
	}
	if got := relayed.header.Get(servedByHeader); got != owner {
		t.Errorf("relayed %s = %q, want the owner %s", servedByHeader, got, owner)
	}
	if st := h.NodeAt(entry).ClusterNode().StatusSnapshot(); st.LocalFallbacks != 0 || st.ForwardErrors != 0 {
		t.Errorf("a shed counted as a failed exchange: %+v", st)
	}
}

// TestClusterForwardMalformedHeaders: a forwarded request whose
// ring-version or trace-ID header does not parse is still served — it
// only goes untraced and uncounted as stale. A well-formed trace ID gets
// the owner's spans back in the reply.
func TestClusterForwardMalformedHeaders(t *testing.T) {
	h := startServingHarness(t, 1, server.Config{}, true)
	hn := h.Nodes()[0]
	client := &http.Client{Timeout: 10 * time.Second}
	body := `{"user":"header-probe-user","query":"are bad cluster headers served"}`

	for name, hdr := range map[string]http.Header{
		"bad ring version": {forwardedHeader: {"10.9.9.9:1"}, ringVersionHeader: {"v-one"}, traceIDHeader: {"1f"}},
		"bad trace ID":     {forwardedHeader: {"10.9.9.9:1"}, ringVersionHeader: {"1"}, traceIDHeader: {"not-hex"}},
		"zero trace ID":    {forwardedHeader: {"10.9.9.9:1"}, traceIDHeader: {"0"}},
	} {
		rep := postRaw(t, client, hn.URL()+"/v1/query", body, hdr)
		if rep.status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rep.status, rep.body)
		}
		if got := rep.header.Get(servedByHeader); got != hn.Addr {
			t.Errorf("%s: %s = %q, want %s", name, servedByHeader, got, hn.Addr)
		}
		traced := hdr.Get(traceIDHeader) == "1f"
		if got := rep.header.Get(spansHeader) != ""; got != traced {
			t.Errorf("%s: spans header present = %v, want %v", name, got, traced)
		}
	}
	st := hn.ClusterNode().StatusSnapshot()
	if st.ForwardedServed != 3 || st.StaleForwards != 0 {
		t.Errorf("forwarded_served = %d, stale_forwards = %d; want 3 and 0", st.ForwardedServed, st.StaleForwards)
	}

	// A parseable ring version other than the owner's own is stale.
	postRaw(t, client, hn.URL()+"/v1/query", body, http.Header{forwardedHeader: {"10.9.9.9:1"}, ringVersionHeader: {"987654"}})
	if st := hn.ClusterNode().StatusSnapshot(); st.StaleForwards != 1 {
		t.Errorf("stale_forwards = %d after a mismatched ring version, want 1", st.StaleForwards)
	}
}

// stubNode builds a Node (never started) whose only peer is the stub
// server at peerAddr, tracing into tracer when non-nil.
func stubNode(t *testing.T, peerAddr string, tracer *obs.Tracer) *Node {
	t.Helper()
	reg, err := server.NewRegistry(server.RegistryConfig{
		Shards:     1,
		PersistDir: t.TempDir(),
		Factory: func(string) *core.Client {
			return core.New(core.Options{Encoder: &testEncoder{dim: 8}, LLM: llmsim.New(llmsim.DefaultConfig()), Tau: 0.9, TopK: 1})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		Self: "127.0.0.1:1", Peers: []string{peerAddr}, Registry: reg, Tracer: tracer,
		ForwardRetries: -1, HedgeAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestClusterForwardGarbageSpansHeader: an owner whose spans header does
// not decode costs the origin's trace its remote spans, never the reply.
func TestClusterForwardGarbageSpansHeader(t *testing.T) {
	for name, spans := range map[string]string{
		"not base64":      "!!not base64!!",
		"not a span blob": "AAECAwQF",
	} {
		t.Run(name, func(t *testing.T) {
			const answer = `{"hit":true,"response":"from the owner"}` + "\n"
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Header.Get(traceIDHeader) == "" {
					t.Error("forward carried no trace ID")
				}
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set(servedByHeader, "stub")
				w.Header().Set(spansHeader, spans)
				w.Write([]byte(answer))
			}))
			defer stub.Close()
			tracer := obs.NewTracer(obs.TracerConfig{Node: "origin", SampleRate: 1, RingSize: 4})
			n := stubNode(t, strings.TrimPrefix(stub.URL, "http://"), tracer)
			user := ""
			for i := 0; i < 256 && user == ""; i++ {
				if u := fmt.Sprintf("spans-user-%d", i); n.Ring().Owner(u) != n.Self() {
					user = u
				}
			}
			local := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				t.Error("served locally; want the owner's reply")
			})
			rec := httptest.NewRecorder()
			n.Wrap(local).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query",
				strings.NewReader(fmt.Sprintf(`{"user":%q,"query":"q"}`, user))))
			if rec.Code != http.StatusOK || rec.Body.String() != answer {
				t.Fatalf("reply %d %q, want 200 %q", rec.Code, rec.Body.String(), answer)
			}
			recent := tracer.Recent()
			if len(recent) != 1 {
				t.Fatalf("origin published %d traces, want 1", len(recent))
			}
			tr := recent[0]
			if !tr.Hit || tr.Status != http.StatusOK {
				t.Errorf("trace outcome hit=%v status=%d, want a 200 hit", tr.Hit, tr.Status)
			}
			for _, s := range tr.Spans {
				if s.Node != "" {
					t.Errorf("remote span stitched from a garbage header: %+v", s)
				}
			}
		})
	}
}

// TestClusterGossipRoundTrip: a probe of a real node's gossip endpoint
// reads back the status that node reports.
func TestClusterGossipRoundTrip(t *testing.T) {
	h := startServingHarness(t, 2, server.Config{}, false)
	a, b := h.Nodes()[0], h.Nodes()[1]
	st, err := a.ClusterNode().probe(b.Addr)
	if err != nil {
		t.Fatal(err)
	}
	ring := b.ClusterNode().Ring()
	if st.Node != b.Addr || st.RingVersion != ring.Version() || !sameMembers(ring.Members(), st.Alive) {
		t.Errorf("probe read %+v, node reports ring v%d members %v", st, ring.Version(), ring.Members())
	}
}

// TestClusterGossipRejectsBadPeerStatus: a peer-status body that is not
// JSON, runs past the read cap, lists more than the member cap, or names
// another node fails the probe with an error, never a panic.
func TestClusterGossipRejectsBadPeerStatus(t *testing.T) {
	var body atomic.Pointer[[]byte]
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(*body.Load())
	}))
	defer stub.Close()
	addr := strings.TrimPrefix(stub.URL, "http://")
	n := stubNode(t, addr, nil)
	status := func(node string, alive int) []byte {
		b, err := json.Marshal(PeerStatus{Node: node, RingVersion: 3, Alive: make([]string, alive)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	good := status(addr, 2)
	body.Store(&good)
	if _, err := n.probe(addr); err != nil {
		t.Fatalf("well-formed status rejected: %v", err)
	}
	for name, b := range map[string][]byte{
		"garbage JSON":      []byte(`{"node": "` + addr + `", "ring_version": [`),
		"past the read cap": append(status(addr, 0), bytes.Repeat([]byte(" "), maxGossipBody)...),
		"too many members":  status(addr, maxGossipMembers+1),
		"identity mismatch": status("10.1.2.3:4", 2),
	} {
		body.Store(&b)
		if st, err := n.probe(addr); err == nil {
			t.Errorf("%s: probe accepted %+v", name, st)
		}
	}
}
