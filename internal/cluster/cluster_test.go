package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llmsim"
	"repro/internal/server"
	"repro/internal/vecmath"
)

// testEncoder is a deterministic bag-of-words hash encoder: equal texts
// embed identically (similarity 1), unrelated texts land near-orthogonal
// — all the cluster tests need from semantics, at a fraction of the
// simulated-transformer cost.
type testEncoder struct{ dim int }

func (e *testEncoder) Encode(text string) []float32 {
	v := make([]float32, e.dim)
	for _, w := range strings.Fields(text) {
		h := hash64(w)
		for i := range v {
			h ^= h >> 12
			h *= 0x2545f4914f6cdd1d
			v[i] += float32(int32(uint32(h>>32))) / (1 << 31)
		}
	}
	if vecmath.Normalize(v) == 0 {
		v[0] = 1
	}
	return v
}

func (e *testEncoder) Dim() int     { return e.dim }
func (e *testEncoder) Name() string { return "test-hash" }

// reviveRecorder observes tenant revivals cluster-wide: which node
// revived which tenant, and with what persisted model version.
type reviveRecorder struct {
	mu      sync.Mutex
	revived map[string]string // user → model version at last revival
	node    map[string]string // user → node that revived it
}

func newReviveRecorder() *reviveRecorder {
	return &reviveRecorder{
		revived: make(map[string]string),
		node:    make(map[string]string),
	}
}

func (rr *reviveRecorder) version(user string) string {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.revived[user]
}

func (rr *reviveRecorder) revivedOn(user string) string {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.node[user]
}

// testHooks is one node's server.TenantHooks: it stamps a model version
// on every tenant it activates (as the FL coordinator does), which the
// registry persists with the tenant, and reports revivals — activations
// that found a persisted stamp — to the shared recorder.
type testHooks struct {
	node     string
	version  string
	recorder *reviveRecorder
}

func (h *testHooks) TenantActivated(t *server.Tenant) {
	if v := t.ModelVersion(); v != "" && h.recorder != nil {
		h.recorder.mu.Lock()
		h.recorder.revived[t.ID] = v
		h.recorder.node[t.ID] = h.node
		h.recorder.mu.Unlock()
	}
	t.SetModelVersion(h.version)
}

// startTestCluster boots an n-node in-process cluster over a shared
// persist dir, with fast failover timings and revival recording.
func startTestCluster(t *testing.T, n int, recorder *reviveRecorder) *Harness {
	t.Helper()
	dir := t.TempDir()
	llm := llmsim.New(llmsim.DefaultConfig()) // virtual time: no real sleeps
	h, err := StartHarness(HarnessConfig{
		Nodes:      n,
		VNodes:     64,
		Heartbeat:  25 * time.Millisecond,
		DeadAfter:  2,
		DrainWait:  time.Second,
		SweepEvery: 100 * time.Millisecond,
		Logf:       t.Logf,
		MakeNode: func(self string) (*server.Registry, *server.Server, error) {
			reg, err := server.NewRegistry(server.RegistryConfig{
				Shards:     4,
				PersistDir: dir, // shared across nodes — the handoff channel
				Hooks:      &testHooks{node: self, version: "model-v7", recorder: recorder},
				Factory: func(userID string) *core.Client {
					return core.New(core.Options{
						Encoder:      &testEncoder{dim: 32},
						LLM:          llm,
						Tau:          0.9,
						TopK:         4,
						FeedbackStep: 0.01,
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
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// postJSON posts body and decodes a JSON response, reporting the HTTP
// status.
func postJSON[T any](client *http.Client, url string, body any) (T, int, error) {
	var out T
	raw, err := json.Marshal(body)
	if err != nil {
		return out, 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, resp.StatusCode, fmt.Errorf("status %d", resp.StatusCode)
	}
	return out, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&out)
}

func queryUser(client *http.Client, base, user, text string) (server.QueryResponse, error) {
	qr, _, err := postJSON[server.QueryResponse](client, base+"/v1/query", server.QueryRequest{User: user, Query: text})
	return qr, err
}

func userText(u, q int) string {
	return fmt.Sprintf("user %d question %d about topic %d", u, q, u*100+q)
}

// pickEntry returns a live URL, rotating by i.
func pickEntry(h *Harness, i int) string {
	urls := h.LiveURLs()
	return urls[i%len(urls)]
}

// postWithEntryFailover posts to a live entry node, retrying on a
// different entry when the connection itself fails — the client-side
// failover any real client performs when its chosen endpoint dies
// mid-request. A non-OK HTTP status is returned as-is (the cluster
// answered; that is not an entry failure).
func postWithEntryFailover[T any](h *Harness, client *http.Client, path string, body any, seed int) (T, error) {
	var out T
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		var status int
		out, status, err = postJSON[T](client, pickEntry(h, seed+attempt)+path, body)
		if err == nil || status != 0 {
			return out, err
		}
	}
	return out, err
}
