package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// scripted answers /v1/query according to the query text, covering
// every reply class the driver distinguishes.
func scripted(t *testing.T) *httptest.Server {
	t.Helper()
	shed := func(w http.ResponseWriter, status int, code string) {
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: code, Code: code, RetryAfterMS: 5})
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.QueryRequest
		if r.URL.Path != "/v1/query" || json.NewDecoder(r.Body).Decode(&req) != nil {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		switch req.Query {
		case "hit":
			json.NewEncoder(w).Encode(server.QueryResponse{Hit: true, LatencyMicros: 150})
		case "miss":
			json.NewEncoder(w).Encode(server.QueryResponse{LatencyMicros: 2_000_000})
		case "degraded":
			json.NewEncoder(w).Encode(server.QueryResponse{Hit: true, Degraded: true, LatencyMicros: 90})
		case "quota":
			shed(w, http.StatusTooManyRequests, "quota")
		case "saturated":
			shed(w, http.StatusServiceUnavailable, "saturated")
		case "breaker":
			shed(w, http.StatusServiceUnavailable, "breaker_open")
		case "upstream":
			shed(w, http.StatusBadGateway, "upstream_error")
		case "malformed":
			io.WriteString(w, `{"hit": tru`)
		case "drop":
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		default:
			http.Error(w, "teapot", http.StatusTeapot)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestSendClassifiesEveryReplyClass(t *testing.T) {
	tg := newTarget(5*time.Second, scripted(t).URL)
	p := newPhase()
	for _, j := range []job{
		{text: "hit", dup: true},
		{text: "miss"},
		{text: "miss", dup: true},
		{text: "degraded", dup: true},
		{text: "quota"},
		{text: "saturated"},
		{text: "saturated"},
		{text: "breaker"},
		{text: "upstream"},
		{text: "malformed"},
		{text: "drop"},
		{text: "anything else"},
	} {
		j.user = "u"
		p.record(j, tg.send(j))
	}

	got := map[string]int{
		"queries": p.queries, "served": p.served, "hits": p.hits, "degraded": p.degraded,
		"dups": p.dups, "dupHits": p.dupHits, "upstream": p.upstream, "unexpected": p.unexpected,
		"failed": p.failed(), "shedTotal": p.shedTotal(),
		"TP": p.confusion.TP, "FN": p.confusion.FN, "TN": p.confusion.TN, "FP": p.confusion.FP,
	}
	want := map[string]int{
		"queries": 12, "served": 4, "hits": 2, "degraded": 1,
		"dups": 3, "dupHits": 2, "upstream": 1, "unexpected": 3,
		"failed": 8, "shedTotal": 4,
		"TP": 2, "FN": 1, "TN": 1, "FP": 0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("phase counters\n got %v\nwant %v", got, want)
	}
	if want := map[string]int{"quota": 1, "saturated": 2, "breaker_open": 1}; !reflect.DeepEqual(p.sheds, want) {
		t.Errorf("sheds = %v, want %v", p.sheds, want)
	}
	if !strings.HasPrefix(p.firstBad, "decoding response") {
		t.Errorf("firstBad = %q, want the malformed body (the first unexpected reply)", p.firstBad)
	}
	// Only hits feed the hit recorders; every served reply feeds latency,
	// which takes the server-reported time when it exceeds the wire RTT.
	if p.hitRTT.Count() != 2 || p.hitLat.Count() != 2 || p.latency.Count() != 4 {
		t.Errorf("recorder counts hitRTT %d hitLat %d latency %d, want 2 2 4",
			p.hitRTT.Count(), p.hitLat.Count(), p.latency.Count())
	}
	if got := p.hitLat.Percentile(100); got != 150*time.Microsecond {
		t.Errorf("hitLat max = %v, want the server-reported 150µs", got)
	}
	if got := p.latency.Percentile(100); got != 2*time.Second {
		t.Errorf("latency max = %v, want the miss's simulated 2s", got)
	}

	for text, want := range map[string]string{
		"hit": "", "quota": "status 429 shed quota", "upstream": "status 502", "anything else": "status 418",
	} {
		if got := tg.send(job{text: text}).problem(); got != want {
			t.Errorf("problem(%q) = %q, want %q", text, got, want)
		}
	}
	if o := tg.send(job{text: "drop"}); o.status != 0 || !strings.HasPrefix(o.err, "transport:") {
		t.Errorf("dropped connection classified as %+v, want a transport failure", o)
	}
}

func TestDriveBoundsInFlightAndDispatchesInOrder(t *testing.T) {
	const concurrency, n = 4, 60
	jobs := make([]job, n)
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	sent := 0
	var dispatched []int
	took := drive(jobs, concurrency, func(job) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		mu.Lock()
		sent++
		mu.Unlock()
	}, func(d int) { dispatched = append(dispatched, d) })

	if sent != n {
		t.Errorf("sent %d jobs, want %d", sent, n)
	}
	if peak.Load() != concurrency {
		t.Errorf("peak in flight %d, want exactly the concurrency %d", peak.Load(), concurrency)
	}
	for i, d := range dispatched {
		if d != i+1 {
			t.Fatalf("onDispatch call %d got count %d, want %d", i, d, i+1)
		}
	}
	if len(dispatched) != n {
		t.Errorf("onDispatch fired %d times, want once per job (%d)", len(dispatched), n)
	}
	if took < n/concurrency*time.Millisecond {
		t.Errorf("drive returned %v, less than the closed loop can take", took)
	}
	// A nil hook and an empty job list are both fine.
	drive(nil, concurrency, func(job) { t.Error("send called with no jobs") }, nil)
}

func TestEntryFailoverRetriesTransportErrorsOnly(t *testing.T) {
	var liveHits, errHits atomic.Int64
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		liveHits.Add(1)
		json.NewEncoder(w).Encode(server.QueryResponse{Hit: true})
	}))
	defer live.Close()
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		errHits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer failing.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from now on

	// A dead entry costs a retry, not an error, whichever entry the
	// round-robin starts on.
	tg := newTarget(5*time.Second, dead.URL, live.URL)
	for i := 0; i < 4; i++ {
		if o := tg.send(job{user: "u", text: "q"}); !o.served() || !o.reply.Hit {
			t.Fatalf("send %d through [dead, live] = %+v, want served by the live entry", i, o)
		}
	}
	if liveHits.Load() != 4 {
		t.Errorf("live entry saw %d requests, want 4", liveHits.Load())
	}

	// An HTTP error status is the cluster's answer: no retry elsewhere.
	liveHits.Store(0)
	tg = newTarget(5*time.Second, failing.URL, live.URL)
	statuses := map[int]int{}
	for i := 0; i < 4; i++ {
		statuses[tg.send(job{user: "u", text: "q"}).status]++
	}
	if statuses[500] != 2 || statuses[200] != 2 || errHits.Load() != 2 || liveHits.Load() != 2 {
		t.Errorf("round-robin over [500, live]: statuses %v, failing saw %d, live saw %d; want 2 each and no retries",
			statuses, errHits.Load(), liveHits.Load())
	}

	// Every entry dead: one transport failure, after trying each once.
	tg = newTarget(5*time.Second, dead.URL, dead.URL)
	if o := tg.send(job{user: "u", text: "q"}); o.status != 0 || o.err == "" {
		t.Errorf("all entries dead = %+v, want a transport failure", o)
	}
	tg.entries = func() []string { return nil }
	if o := tg.send(job{user: "u", text: "q"}); o.err != "no live entry nodes" {
		t.Errorf("no entries = %+v", o)
	}
}

func TestWorkloadsRepeatForEqualSeeds(t *testing.T) {
	w1, p1 := buildJobs(7, 5, 4, 0.4, 3, 6, 3)
	w2, p2 := buildJobs(7, 5, 4, 0.4, 3, 6, 3)
	if !reflect.DeepEqual(w1, w2) || !reflect.DeepEqual(p1, p2) {
		t.Error("buildJobs differs between two calls with the same seed")
	}
	if w3, _ := buildJobs(8, 5, 4, 0.4, 3, 6, 3); reflect.DeepEqual(w1, w3) {
		t.Error("buildJobs ignores its seed")
	}
	if len(w1) != 5*4 || len(p1) != 3 || len(p1[0]) != 5*3 || len(p1[1]) != 5*6 || len(p1[2]) != 5*3 {
		t.Errorf("buildJobs sizes: warmup %d, phases %d/%d/%d", len(w1), len(p1[0]), len(p1[1]), len(p1[2]))
	}
	// A user's probes are dealt to the phases in one pass: no probe text
	// is shared between phases.
	seen := map[string]bool{}
	for _, ph := range p1 {
		for _, j := range ph {
			if seen[j.user+"\x00"+j.text] {
				t.Fatalf("probe %q of %s appears in two phases", j.text, j.user)
			}
			seen[j.user+"\x00"+j.text] = true
		}
	}

	fl := func() [][]job {
		w := newFLWorkload(7, 4, 3, 5, 0.4)
		return [][]job{w.warmupJobs(), w.phaseJobs(), w.phaseJobs()}
	}
	a, b := fl(), fl()
	if !reflect.DeepEqual(a, b) {
		t.Error("the FL workload differs between two builds with the same seed")
	}
	if reflect.DeepEqual(a[1], a[2]) {
		t.Error("two FL phases repeat the same probes")
	}
	for _, j := range a[1] {
		if j.dup != (j.dupText != "") {
			t.Fatalf("FL probe %+v: dup label and dupText disagree", j)
		}
	}

	hw1, hp1, share1 := hotspotJobs(7)
	hw2, hp2, share2 := hotspotJobs(7)
	if !reflect.DeepEqual(hw1, hw2) || !reflect.DeepEqual(hp1, hp2) || share1 != share2 {
		t.Error("hotspotJobs differs between two calls with the same seed")
	}
	if len(hw1) != hotCachedHot+(hotTenants-1)*hotCached || len(hp1) != hotProbes || hotProbes%hotSlice != 0 {
		t.Errorf("hotspotJobs sizes: warmup %d, %d probes in slices of %d", len(hw1), len(hp1), hotSlice)
	}
	if share1 < 0.5 {
		t.Errorf("hot tenant drew %.0f%% of the probes, want a majority", 100*share1)
	}
}

func TestVerdictExitsNonZeroOnlyWithAcceptAndAFailedGate(t *testing.T) {
	pass := []gate{check("clean run", true, "0 errors")}
	fail := []gate{check("clean run", true, "0 errors"), check("hit-path p99", false, "%d ms", 9)}
	for _, tc := range []struct {
		gates  []gate
		accept bool
		code   int
		want   string
	}{
		{pass, false, 0, "ACCEPT PASS"},
		{pass, true, 0, "ACCEPT PASS"},
		{fail, false, 0, "not enforced"},
		{fail, true, 1, "ACCEPT FAIL"},
	} {
		var out bytes.Buffer
		if code := verdict(&out, tc.gates, tc.accept); code != tc.code {
			t.Errorf("verdict(accept=%v) = %d, want %d", tc.accept, code, tc.code)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("verdict(accept=%v) printed %q, want it to mention %q", tc.accept, out.String(), tc.want)
		}
	}
	var out bytes.Buffer
	verdict(&out, fail, true)
	if !strings.Contains(out.String(), "PASS clean run") || !strings.Contains(out.String(), "FAIL hit-path p99       9 ms") {
		t.Errorf("gate lines: %q", out.String())
	}
}

func TestScenarioFlagRejectsUnknownNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-scenario", "bogus", "-accept"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	for _, name := range []string{"serve", "ann", "cluster", "overload", "hotspot", "crash"} {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("the error %q does not list scenario %q", stderr.String(), name)
		}
		if _, err := lookupScenario(name); err != nil {
			t.Errorf("lookupScenario(%q): %v", name, err)
		}
	}
	if len(scenarios) != 6 {
		t.Errorf("%d scenarios in the table, want 6", len(scenarios))
	}
	// A run that cannot be carried out exits 1 even without -accept.
	stderr.Reset()
	if code := realMain([]string{"-addr", "127.0.0.1:1", "-timeout", "1s"}, &stdout, &stderr); code != 1 {
		t.Errorf("serve against a dead address exited %d, want 1 (%s)", code, stderr.String())
	}
}
