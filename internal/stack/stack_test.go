package stack

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/embed"
	"repro/internal/index"
	"repro/internal/raceflag"
	"repro/internal/server"
	"repro/internal/vecmath"
)

// TestFlagSurfaceGolden pins cacheserve's command line: names, defaults
// and help text as `cacheserve -h` printed them before the flags moved
// onto Config (testdata/flags.golden is that output minus its "Usage of"
// line). A flag added, renamed, re-defaulted or reworded fails here.
func TestFlagSurfaceGolden(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("cacheserve", flag.ContinueOnError)
	c.Bind(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 48 {
		t.Errorf("Bind registers %d flags, want 48", n)
	}
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("flag surface differs from testdata/flags.golden:\n%s", got.String())
	}
}

// TestDefaultMatchesBenchStack pins the shipped defaults that
// bench/stack.go copies by hand into the traced replay's in-process
// stack. bench/ cannot import this package yet, so a default changed here
// must be changed there too, or BENCHMARK.json's per-layer ledger would
// describe a different server from the one its end-to-end metrics ran.
func TestDefaultMatchesBenchStack(t *testing.T) {
	d := Default()
	for _, c := range []struct {
		name      string
		got, want any
	}{
		// No "batch wait" rows: the waits bench/stack.go still writes into
		// its two BatcherConfig literals are inert (nothing in
		// internal/server reads that field), so there is no default to match.
		{"encode batch cap", d.Batch.MaxBatch, 32},
		{"search batch cap", d.SearchBatch.MaxBatch, 32},
		{"search batcher on", d.NoSearchBatch, false},
		{"limiter min", d.Governor.Limiter.MinLimit, 4},
		{"limiter max (off)", d.Governor.Limiter.MaxLimit, 0},
		{"limiter queue", d.Governor.Limiter.MaxQueue, 128},
		{"breaker window (off)", d.Governor.Breaker.Window, 0},
		{"breaker threshold", d.Governor.Breaker.FailureRatio, 0.5},
		{"breaker cool-off", d.Governor.Breaker.OpenFor, 5 * time.Second},
		{"breaker probes", d.Governor.Breaker.HalfOpenProbes, 3},
		{"quota rate (off)", d.Governor.Quota.Rate, 0.0},
		{"maintenance weight", d.Governor.MaintenanceWeight, int64(2)},
		{"top-k", d.TopK, 5},
		{"tenant capacity", d.Capacity, 4096},
		{"feedback step", d.FeedbackStep, 0.01},
		{"context tau", d.CtxTau, 0.0},
		{"degraded tau delta", d.TauDegraded, 0.05},
		{"registry shards", d.Shards, 16},
		{"stats rows", d.StatsTenants, 20},
		{"upstream (in-process)", d.Upstream, ""},
		{"upstream sleep", d.Sleep, false},
		{"upstream timeout", d.UpstreamTimeout, time.Duration(0)},
		{"tracing (off)", d.Trace.SampleRate, 0.0},
		{"metrics (off)", d.Metrics, false},
		{"FL (off)", d.FL, false},
		{"cluster (off)", d.Cluster, false},
	} {
		if c.got != c.want {
			t.Errorf("default %s = %v, but bench/stack.go's newStack hard-codes %v: change both, "+
				"or the traced ledger in BENCHMARK.json measures a different server from the shipped one",
				c.name, c.got, c.want)
		}
	}
}

// countingEncoder counts the EncodeBatch calls that reach the model.
type countingEncoder struct {
	*embed.Model
	batchCalls, batchTexts atomic.Int64
}

func (e *countingEncoder) EncodeBatch(texts []string) *vecmath.Matrix {
	e.batchCalls.Add(1)
	e.batchTexts.Add(int64(len(texts)))
	return e.Model.EncodeBatch(texts)
}

// query posts one /v1/query straight into h and decodes the reply.
func query(t *testing.T, h http.Handler, user, text string) server.QueryResponse {
	t.Helper()
	body, _ := json.Marshal(server.QueryRequest{User: user, Query: text})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

// stackGoroutines lists the running goroutines that belong to a Stack's
// own background workers: the FL round ticker, the cluster loops and a
// tenant index's tier promotion (the batchers own no goroutine).
func stackGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, owner := range []string{"flserve.(*Service)", "cluster.(*Node)", "index.(*Adaptive)"} {
			if strings.Contains(g, owner) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// wantNoStackGoroutines fails if any of them outlives Close. Close waits
// for each worker's exit signal, which the worker sends just before it
// returns, so the check allows it a moment to finish returning.
func wantNoStackGoroutines(t *testing.T) {
	t.Helper()
	var left []string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if left = stackGoroutines(); len(left) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(left) > 0 {
		t.Errorf("%d stack goroutines still running:\n%s", len(left), strings.Join(left, "\n\n"))
	}
}

// TestBuildModes builds every mode the flags select, serves a miss and
// then a hit through Handler, and checks that Close (or a failed Build)
// leaves none of the stack's goroutines behind.
func TestBuildModes(t *testing.T) {
	enc := embed.NewModel(embed.AlbertSim, 1) // shared: building one per case is most of the run time
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		set     func(c *Config)
		wantErr string
		check   func(t *testing.T, s *Stack)
	}{
		{name: "default", check: func(t *testing.T, s *Stack) {
			if s.Batcher == nil || s.SearchBatcher == nil || s.tenant.Searcher == nil {
				t.Error("the shipped stack runs both batchers")
			}
			if s.Governor.Maintenance == nil || s.tenant.MaintenanceGate == nil {
				t.Error("the shipped stack gates maintenance")
			}
			if s.Governor.Quotas != nil || s.Governor.Limiter != nil || s.Governor.Breaker != nil {
				t.Error("quotas, limiter and breaker are off by default")
			}
			if s.hooks != nil || s.observer != nil || s.FL != nil || s.Node != nil {
				t.Error("FL and cluster are off by default, hooks and observer true nils")
			}
			for _, path := range []string{"/metrics", "/v1/debug/traces"} {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != http.StatusNotFound {
					t.Errorf("%s is served (%d) although observability is off by default", path, rec.Code)
				}
			}
			if s.tenant.IndexFactory != nil {
				t.Error("Build chose an index: a tenant's comes from core.New's default")
			}
		}},
		{name: "overlapping encodes share a batch", set: func(c *Config) {
			c.Encoder = &countingEncoder{Model: enc}
		}, check: func(t *testing.T, s *Stack) {
			// The encode batcher never waits for company, so overlap is
			// arranged: hold as many queries' encodes as it lets run at
			// once inside the OnBatch hook (which runs on the leader's
			// goroutine, its pass marked in flight), park two more queries
			// behind them, then let them go.
			leaders := int32(runtime.GOMAXPROCS(0))
			held, release := make(chan struct{}), make(chan struct{})
			var passes atomic.Int32
			s.Batcher.OnBatch(func(int) {
				if passes.Add(1) == leaders {
					close(held)
				}
				<-release
			})
			var wg sync.WaitGroup
			serve := func(user string) {
				defer wg.Done()
				body := strings.NewReader(`{"user":"` + user + `","query":"do overlapping encodes share a batch"}`)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", body))
				if rec.Code != http.StatusOK {
					t.Errorf("%s: query status %d: %s", user, rec.Code, rec.Body)
				}
			}
			for i := int32(0); i < leaders; i++ {
				wg.Add(1)
				go serve("leader" + string(rune('a'+i)))
			}
			<-held
			wg.Add(2)
			go serve("a")
			go serve("b")
			for deadline := time.Now().Add(10 * time.Second); s.Batcher.QueueDepth() < 2; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Errorf("%d of 2 encodes parked behind the held passes", s.Batcher.QueueDepth())
					break
				}
			}
			close(release)
			wg.Wait()
			ce := s.cfg.Encoder.(*countingEncoder)
			if calls, texts := ce.batchCalls.Load(), ce.batchTexts.Load(); calls != 1 || texts != 2 {
				t.Errorf("EncodeBatch ran %d times over %d texts, want once over the 2 overlapping encodes", calls, texts)
			}
			if st := s.Batcher.Stats(); st.Coalesced != 2 {
				t.Errorf("batcher stats %+v, want 2 coalesced", st)
			}
		}},
		{name: "no search batcher, no gate", set: func(c *Config) {
			c.NoSearchBatch, c.Governor.MaintenanceWeight = true, 0
		}, check: func(t *testing.T, s *Stack) {
			if s.SearchBatcher != nil {
				t.Error("search batcher built although disabled")
			}
			if s.tenant.Searcher != nil || s.tenant.MaintenanceGate != nil {
				t.Error("a disabled searcher or gate must be a true nil interface")
			}
		}},
		{name: "fl", set: func(c *Config) {
			c.FL, c.FLInterval, c.FLDir = true, time.Hour, t.TempDir()
		}, check: func(t *testing.T, s *Stack) {
			if s.FL == nil || s.hooks == nil || s.observer == nil || s.flStore == nil {
				t.Error("FL parts missing")
			}
			if s.Encoder.Name() != "albert-sim+batch" {
				t.Errorf("encoder %q: want the batcher outermost, over the swappable holder", s.Encoder.Name())
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/fl/status", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("/v1/fl/status: %d", rec.Code)
			}
		}},
		{name: "fl needs a trainable encoder", set: func(c *Config) {
			c.FL, c.Encoder, c.Arch = true, nil, "llama2-sim"
		}, wantErr: "trainable"},
		{name: "fl-dir cannot open", set: func(c *Config) {
			c.FL, c.FLDir = true, notADir
		}, wantErr: "opening FL store"},
		{name: "cluster without persist-dir", set: func(c *Config) { c.Cluster = true }, wantErr: "-persist-dir"},
		{name: "cluster", set: func(c *Config) {
			c.Cluster, c.PersistDir, c.Addr = true, t.TempDir(), "127.0.0.1:1"
			c.Metrics, c.Trace.SampleRate = true, 1
		}, check: func(t *testing.T, s *Stack) {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/cluster/status", nil))
			if s.Node == nil || rec.Code != http.StatusOK {
				t.Errorf("cluster routes not served: node %v, status %d", s.Node, rec.Code)
			}
		}},
		{name: "unknown arch", set: func(c *Config) { c.Encoder, c.Arch = nil, "gpt" }, wantErr: "unknown architecture"},
		{name: "model missing", set: func(c *Config) {
			c.Encoder, c.Model = nil, filepath.Join(notADir, "m.gob")
		}, wantErr: "opening model"},
		{name: "quota, limiter, breaker, timeout", set: func(c *Config) {
			c.Governor.Quota.Rate, c.Governor.Limiter.MaxLimit, c.Governor.Breaker.Window = 1000, 8, 10
			c.UpstreamTimeout = time.Second
		}, check: func(t *testing.T, s *Stack) {
			if s.Governor.Quotas == nil || s.Governor.Limiter == nil || s.Governor.Breaker == nil {
				t.Errorf("governor parts missing: %+v", s.Governor)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
			var stats server.StatsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
				t.Fatal(err)
			}
			// The miss went upstream through the guard: the limiter saw it.
			if r := stats.Resilience; r == nil || r.Limiter == nil || r.Breaker == nil || r.Quota == nil {
				t.Errorf("/v1/stats resilience block: %+v", r)
			}
		}},
		{name: "metrics and tracing", set: func(c *Config) {
			c.Metrics, c.Trace.SampleRate, c.Trace.SlowThreshold = true, 1, time.Millisecond
		}, check: func(t *testing.T, s *Stack) {
			for _, path := range []string{"/metrics", "/v1/debug/traces"} {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
					t.Errorf("%s: status %d, %d bytes", path, rec.Code, rec.Body.Len())
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			cfg.Encoder = enc
			if tc.set != nil {
				tc.set(&cfg)
			}
			s, err := Build(cfg)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Build error = %v, want one containing %q", err, tc.wantErr)
				}
				if s != nil {
					t.Error("a failed Build must not hand back a stack")
				}
				wantNoStackGoroutines(t)
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			if qr := query(t, h, "u1", "what is federated learning"); qr.Hit {
				t.Error("first query hit an empty cache")
			}
			if qr := query(t, h, "u1", "what is federated learning"); !qr.Hit {
				t.Error("repeated query missed")
			}
			if qr := query(t, h, "u2", "what is federated learning"); qr.Hit {
				t.Error("another tenant hit u1's entry")
			}
			if tc.check != nil {
				tc.check(t, s)
			}
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			wantNoStackGoroutines(t)
			if cfg.PersistDir != "" {
				if snaps, _ := filepath.Glob(filepath.Join(cfg.PersistDir, "*.cache")); len(snaps) != 2 {
					t.Errorf("Close flushed %d tenant snapshots to -persist-dir, want 2", len(snaps))
				}
			}
		})
	}
}

// TestDefaultStackTenantSizePicksTier drives the shipped stack until one
// tenant outgrows the exact scan: nothing but its entry count moves it to
// the IVF tier, a small tenant beside it stays on Flat, both surfaces
// that report tiers agree, and Close right after the promotion leaves no
// goroutine behind.
func TestDefaultStackTenantSizePicksTier(t *testing.T) {
	cfg := Default()
	cfg.Metrics = true
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	flatMax, _ := index.DefaultThresholds(s.Encoder.Dim())
	// Only a miss fills the cache, and to an untrained encoder questions
	// that share words are paraphrases: each is three random "words".
	rng := rand.New(rand.NewSource(1))
	fill := func(user string, entries int) (first string) {
		for n := 0; n < entries; {
			q := fmt.Sprintf("%x %x %x", rng.Uint32(), rng.Uint32(), rng.Uint32())
			if qr := query(t, h, user, q); !qr.Hit {
				if n++; n == 1 {
					first = q
				}
			}
		}
		return first
	}
	cached := fill("big", flatMax+1)
	fill("small", 32)
	residents := func() map[string]server.ResidentStats {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
		var stats server.StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		rows := make(map[string]server.ResidentStats)
		for _, r := range stats.Residents {
			rows[r.User] = r
		}
		return rows
	}
	// The promotion runs in the background; the stats row is what an
	// operator would watch.
	rows := residents()
	for deadline := time.Now().Add(30 * time.Second); rows["big"].Tier != "ivf"; rows = residents() {
		if time.Now().After(deadline) {
			t.Fatalf("%d entries past a Flat threshold of %d still serve from %q", rows["big"].Entries, flatMax, rows["big"].Tier)
		}
		time.Sleep(time.Millisecond)
	}
	if rows["big"].Entries != flatMax+1 || rows["small"].Tier != "flat" || rows["small"].Entries != 32 {
		t.Errorf("/v1/stats residents: %+v", rows)
	}
	if qr := query(t, h, "big", cached); !qr.Hit {
		t.Error("an entry cached before the promotion misses on the IVF tier")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		`meancache_tenants_by_tier{tier="flat"} 1`,
		`meancache_tenants_by_tier{tier="ivf"} 1`,
		`meancache_tenants_by_tier{tier="hnsw"} 0`,
	} {
		if !strings.Contains(rec.Body.String(), want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wantNoStackGoroutines(t)
}

// TestServeAndClose binds a real listener, as cacheserve does.
func TestServeAndClose(t *testing.T) {
	cfg := Default()
	cfg.Addr = "127.0.0.1:0"
	cfg.Arch = "albert-sim"
	cfg.PersistDir = t.TempDir()
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(); err != nil {
		t.Fatal(err)
	}
	body := strings.NewReader(`{"user":"u","query":"q"}`)
	resp, err := http.Post("http://"+s.Server.Addr()+"/v1/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantNoStackGoroutines(t)
	if snaps, _ := filepath.Glob(filepath.Join(cfg.PersistDir, "*.cache")); len(snaps) != 1 {
		t.Errorf("Close flushed %d tenant snapshots, want 1", len(snaps))
	}
	if _, err := http.Get("http://" + s.Server.Addr() + "/healthz"); err == nil {
		t.Error("listener still accepting after Close")
	}
}

type nopBody struct{ *bytes.Reader }

func (nopBody) Close() error { return nil }

type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestDefaultStackHitAllocs is the allocation budget of a cache hit
// through the stack that ships: Default(), so the encode micro-batcher
// and the per-tenant search batcher are both on the path (the pins in
// internal/server build their servers without either). The bound is the
// measured count, with no slack: AllocsPerRun floors its mean over 200
// requests, so a GC emptying the pools mid-run cannot reach it and one
// allocation more per request does.
func TestDefaultStackHitAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("pooled buffers are intentionally dropped under -race")
	}
	s, err := Build(Default())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body, _ := json.Marshal(server.QueryRequest{User: "u", Query: "warm question"})
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
	if n := testing.AllocsPerRun(200, serve); n > 10 {
		t.Fatalf("default-stack hit path allocates %v per request, budget 10", n)
	}
}
