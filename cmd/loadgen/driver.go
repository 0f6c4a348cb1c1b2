package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
)

// job is one query a simulated user sends.
type job struct {
	user string
	text string
	dup  bool // ground truth: a cached duplicate exists

	dupText string // fl: the cached query this probe duplicates (for missed_dup)
}

// drive is the closed-loop worker pool every scenario shares:
// concurrency workers each take a job, call send and wait for it to
// return before taking the next, so at most concurrency requests are in
// flight. onDispatch (optional) runs on the dispatching goroutine with
// the 1-based count of jobs handed to workers so far, which is how the
// failover and crash scenarios time their mid-run kill. It returns the
// wall time the jobs took.
func drive(jobs []job, concurrency int, send func(job), onDispatch func(dispatched int)) time.Duration {
	start := time.Now()
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				send(j)
			}
		}()
	}
	for i, j := range jobs {
		ch <- j
		if onDispatch != nil {
			onDispatch(i + 1)
		}
	}
	close(ch)
	wg.Wait()
	return time.Since(start)
}

// outcome is one classified reply to a query. Exactly one class holds:
// served (200 with a decodable body), shed (429/503 carrying a
// structured code), upstream (502) or unexpected (err set: transport
// failure, any other status, malformed body).
type outcome struct {
	status int                  // HTTP status; 0 when no server answered
	reply  server.QueryResponse // the decoded body when served
	shed   string               // structured shed code ("quota", "saturated", "breaker_open")
	err    string               // what went wrong, when unexpected
	rtt    time.Duration        // client-observed round trip of the answering attempt
}

func (o outcome) served() bool { return o.status == http.StatusOK && o.err == "" }

// problem describes a reply that was not served ("" when it was).
func (o outcome) problem() string {
	switch {
	case o.served():
		return ""
	case o.err != "":
		return o.err
	case o.shed != "":
		return fmt.Sprintf("status %d shed %s", o.status, o.shed)
	default:
		return fmt.Sprintf("status %d", o.status)
	}
}

// target is the server (or cluster of servers) under load.
type target struct {
	client *http.Client
	// entries lists the live entry URLs. A request enters through one of
	// them round-robin and, when the connection itself fails, retries
	// through the next: client-side endpoint failover, so a dying entry
	// node costs latency, not errors. A single-server target has one.
	entries func() []string
	rr      atomic.Int64
}

func newTarget(timeout time.Duration, urls ...string) *target {
	return &target{
		client:  &http.Client{Timeout: timeout},
		entries: func() []string { return urls },
	}
}

// send posts one query and classifies the reply.
func (t *target) send(j job) outcome {
	urls := t.entries()
	if len(urls) == 0 {
		return outcome{err: "no live entry nodes"}
	}
	body, _ := json.Marshal(server.QueryRequest{User: j.user, Query: j.text})
	first := int(t.rr.Add(1))
	var o outcome
	for attempt := range urls {
		o = t.post(urls[(first+attempt)%len(urls)], body)
		if o.status != 0 {
			// A server answered. Even an error status is the cluster's
			// answer, and another entry would give the same one.
			break
		}
	}
	return o
}

func (t *target) post(base string, body []byte) outcome {
	start := time.Now()
	resp, err := t.client.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	o := outcome{rtt: time.Since(start)}
	if err != nil {
		o.err = fmt.Sprintf("transport: %v", err)
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.NewDecoder(resp.Body).Decode(&o.reply); err != nil {
			o.err = fmt.Sprintf("decoding response: %v", err)
		}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		var er server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		o.shed = er.Code
		if o.shed == "" {
			o.shed = fmt.Sprintf("status_%d", resp.StatusCode)
		}
	case http.StatusBadGateway:
		// A genuine failure that reached the upstream.
	default:
		o.err = fmt.Sprintf("status %d", resp.StatusCode)
	}
	return o
}

// run drives jobs at the target and records every outcome in p.
func (t *target) run(p *phase, jobs []job, concurrency int, onDispatch func(int)) {
	p.duration += drive(jobs, concurrency, func(j job) { p.record(j, t.send(j)) }, onDispatch)
}

// phaseReservoir is the latency sample window of a phase: large enough
// that every scenario's percentiles are exact, not subsampled.
const phaseReservoir = 1 << 16

// phase aggregates the outcomes of one or more drives. Every scenario
// reads its gate numbers from here.
type phase struct {
	mu         sync.Mutex
	queries    int // every request sent, whatever came back
	served     int // 200s
	hits       int
	degraded   int // hits flagged cache-only degraded
	dups       int // served probes whose ground truth is "duplicate"
	dupHits    int
	sheds      map[string]int // structured shed code -> count (429/503)
	upstream   int            // 502 responses
	unexpected int            // transport failures, other statuses, bad bodies
	firstBad   string         // the first unexpected outcome
	confusion  metrics.Confusion
	// latency blends the wire round trip with the server-reported
	// serving time, mirroring llmsim.Client: a virtual-time upstream's
	// simulated inference is not in the wire time. hitRTT is the
	// client-observed round trip of hits and hitLat their
	// server-reported serving time, free of client-side queueing.
	latency, hitRTT, hitLat *metrics.LatencyRecorder
	duration                time.Duration
}

func newPhase() *phase {
	return &phase{
		sheds:   map[string]int{},
		latency: metrics.NewLatencyRecorder(phaseReservoir),
		hitRTT:  metrics.NewLatencyRecorder(phaseReservoir),
		hitLat:  metrics.NewLatencyRecorder(phaseReservoir),
	}
}

func (p *phase) record(j job, o outcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queries++
	switch {
	case o.err != "":
		p.unexpected++
		if p.firstBad == "" {
			p.firstBad = o.err
		}
	case o.shed != "":
		p.sheds[o.shed]++
	case o.status == http.StatusBadGateway:
		p.upstream++
	default:
		p.served++
		p.confusion.Add(j.dup, o.reply.Hit)
		reported := time.Duration(o.reply.LatencyMicros) * time.Microsecond
		p.latency.Record(max(o.rtt, reported))
		if j.dup {
			p.dups++
		}
		if o.reply.Hit {
			p.hits++
			if j.dup {
				p.dupHits++
			}
			if o.reply.Degraded {
				p.degraded++
			}
			p.hitRTT.Record(o.rtt)
			p.hitLat.Record(reported)
		}
	}
}

// failed counts every request that was not served.
func (p *phase) failed() int { return p.queries - p.served }

func (p *phase) shedTotal() int {
	n := 0
	for _, c := range p.sheds {
		n += c
	}
	return n
}

// failures renders what failed() is made of, for gate details.
func (p *phase) failures() string {
	if p.failed() == 0 {
		return "0 errors"
	}
	return fmt.Sprintf("%d errors (%d shed, %d upstream 502, %d unexpected, first: %s)",
		p.failed(), p.shedTotal(), p.upstream, p.unexpected, p.firstBad)
}

func (p *phase) dupHitRate() float64 { return ratio(p.dupHits, p.dups) }

// rate is n per second of driven time.
func (p *phase) rate(n int) float64 {
	if p.duration <= 0 {
		return 0
	}
	return float64(n) / p.duration.Seconds()
}

func (p *phase) report(name string) {
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	lat, rtt := p.latency.Percentiles(50, 99), p.hitRTT.Percentiles(50, 99)
	fmt.Printf("%-12s %6d req  %6d served  %5d hits (%d/%d dup, %d degraded)  %5d shed  %3d 502  %3d unexpected  %7.0f served/s  p50 %v  p99 %v  hit RTT p50 %v  p99 %v  (server-side p99 %v)\n",
		name, p.queries, p.served, p.hits, p.dupHits, p.dups, p.degraded,
		p.shedTotal(), p.upstream, p.unexpected, p.rate(p.served),
		us(lat[0]), us(lat[1]), us(rtt[0]), us(rtt[1]), us(p.hitLat.Percentile(99)))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// get fetches path from the first live entry, returning a 200's body.
func (t *target) get(path string) ([]byte, error) {
	urls := t.entries()
	if len(urls) == 0 {
		return nil, fmt.Errorf("no live entry nodes")
	}
	resp, err := t.client.Get(urls[0] + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// getJSON fetches path and decodes a 200's JSON body into out.
func (t *target) getJSON(path string, out any) error {
	body, err := t.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// waitHealthy polls /healthz until it answers 200 or budget runs out
// (a zero budget is a single attempt).
func (t *target) waitHealthy(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		_, err := t.get("/healthz")
		if err == nil {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("not healthy within %v: %w", budget, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// snapshot is the server's observable state at one instant: /v1/stats,
// plus /metrics when the server exposes it. Gates assert on these, the
// same surfaces operators see, rather than on process internals.
type snapshot struct {
	stats server.StatsResponse
	exp   *obs.Exposition // nil when the server runs without -metrics
}

// scrape snapshots the server. Only a missing or undecodable /v1/stats
// is an error: load generation must not fail because observability is
// off.
func (t *target) scrape() (snapshot, error) {
	var s snapshot
	if err := t.getJSON("/v1/stats", &s.stats); err != nil {
		return s, fmt.Errorf("/v1/stats: %w", err)
	}
	if body, err := t.get("/metrics"); err == nil {
		s.exp, _ = obs.ParseExposition(body)
	}
	return s, nil
}

// metric reads one sample (0 when absent or /metrics is off).
func (s snapshot) metric(name string, labels map[string]string) float64 {
	if s.exp == nil {
		return 0
	}
	v, _ := s.exp.Value(name, labels)
	return v
}

// stageOrder is the serving pipeline order used for the breakdown rows.
var stageOrder = []string{"decode", "encode", "search", "upstream", "cachefill", "respond"}

// stageBreakdown renders the mean per-stage server-side latency over
// the phase between two snapshots, in pipeline order, from the
// meancache_stage_duration_seconds histograms: what the wire-level RTT
// cannot see. Stages that saw no traffic in the window (e.g. upstream
// during an all-hit phase) are omitted.
func stageBreakdown(before, after snapshot) string {
	var parts []string
	for _, stage := range stageOrder {
		delta := func(suffix string) float64 {
			name, labels := "meancache_stage_duration_seconds"+suffix, map[string]string{"stage": stage}
			return after.metric(name, labels) - before.metric(name, labels)
		}
		n := delta("_count")
		if n <= 0 {
			continue
		}
		mean := time.Duration(delta("_sum") / n * float64(time.Second))
		parts = append(parts, fmt.Sprintf("%s %v", stage, mean.Round(time.Microsecond)))
	}
	return strings.Join(parts, "  ")
}
