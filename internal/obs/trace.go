package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind names one stage of a request's lifecycle.
type SpanKind uint8

const (
	// SpanDecode covers reading and unmarshalling the request body.
	SpanDecode SpanKind = iota + 1
	// SpanEncode covers probe embedding.
	SpanEncode
	// SpanSearch covers the index search proper; it carries the serving
	// tier and candidate count.
	SpanSearch
	// SpanUpstream covers the upstream LLM call on a miss.
	SpanUpstream
	// SpanCacheFill covers inserting the upstream answer into the cache.
	SpanCacheFill
	// SpanRespond covers serialising and writing the response.
	SpanRespond
	// SpanForward covers a cluster-mode forward to the owning node; the
	// owner's child spans stitch under it with their Node set.
	SpanForward
)

func (k SpanKind) String() string {
	switch k {
	case SpanDecode:
		return "decode"
	case SpanEncode:
		return "encode"
	case SpanSearch:
		return "search"
	case SpanUpstream:
		return "upstream"
	case SpanCacheFill:
		return "cachefill"
	case SpanRespond:
		return "respond"
	case SpanForward:
		return "forward"
	default:
		return "unknown"
	}
}

// Serving-tier identifiers carried on search spans. TierID/TierName map
// to the string names internal/index reports.
const (
	TierUnknown uint8 = iota
	TierFlat
	TierIVF
)

// TierID maps an index tier name to its span identifier.
func TierID(name string) uint8 {
	switch name {
	case "flat":
		return TierFlat
	case "ivf":
		return TierIVF
	default:
		return TierUnknown
	}
}

// TierName is the inverse of TierID ("" for TierUnknown).
func TierName(id uint8) string {
	switch id {
	case TierFlat:
		return "flat"
	case TierIVF:
		return "ivf"
	default:
		return ""
	}
}

// MaxSpans is the fixed span capacity of a trace. A request touches at
// most ~7 stages; forwarded requests add the owner's child spans, so 16
// leaves headroom. Past the cap, Add drops the span (the trace is still
// published — truncated beats lost).
const MaxSpans = 16

// Span is one recorded stage. Start is the offset from the trace start;
// remote spans merged from a forward keep their owner-side offsets
// (clocks across nodes are not compared — only durations are).
type Span struct {
	Kind       SpanKind
	Tier       uint8  // search spans: serving index tier
	Candidates int32  // search spans: matches the index returned
	Node       string // non-empty on spans stitched in from a remote node
	Start      time.Duration
	Dur        time.Duration
}

// Trace is one request's span buffer. Traces are pooled and fixed-size:
// the tracer hands them out on Start and reclaims them on Finish (or
// when they age out of the recent ring), so a warmed traced request
// allocates nothing.
type Trace struct {
	ID     uint64
	Node   string
	Path   string
	User   string
	Begin  time.Time
	Total  time.Duration
	Hit    bool
	Status int

	sampled bool // head-sampled at Start
	slow    bool // published by the slow-threshold rule, not sampling
	remote  bool // collected for a forwarding origin; never published here
	n       int
	spans   [MaxSpans]Span
}

// Add appends a span and returns a pointer into the trace's buffer so
// the caller can set Tier/Candidates/Node in place. On a nil trace or a
// full buffer it returns nil. Not safe for concurrent use — a trace
// belongs to one request goroutine at a time.
func (t *Trace) Add(kind SpanKind, start, dur time.Duration) *Span {
	if t == nil || t.n >= MaxSpans {
		return nil
	}
	s := &t.spans[t.n]
	t.n++
	*s = Span{Kind: kind, Start: start, Dur: dur}
	return s
}

// AddRemote stitches child spans collected on node into the trace,
// typically decoded from a ForwardResponse span blob.
func (t *Trace) AddRemote(node string, spans []Span) {
	if t == nil {
		return
	}
	for _, s := range spans {
		if t.n >= MaxSpans {
			return
		}
		s.Node = node
		t.spans[t.n] = s
		t.n++
	}
}

// Spans exposes the recorded spans (a view into the trace's buffer,
// valid until the trace is finished/released).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans[:t.n]
}

// Sampled reports whether the trace was head-sampled at Start (remote
// traces always are — the origin made the decision).
func (t *Trace) Sampled() bool { return t != nil && t.sampled }

func (t *Trace) reset() {
	for i := range t.spans[:t.n] {
		t.spans[i] = Span{}
	}
	*t = Trace{}
}

// TracerConfig tunes a Tracer.
type TracerConfig struct {
	// Node names this process in traces (the cluster self address, or
	// e.g. "local" when not clustered).
	Node string
	// SampleRate is the head-sampling probability in (0, 1]: rate r
	// publishes roughly one in round(1/r) traces. A rate <= 0 disables
	// tracing entirely — NewTracer returns nil, and a nil *Tracer is a
	// no-op on every method.
	SampleRate float64
	// SlowThreshold, when positive, publishes any trace at least this
	// slow even when it lost the head-sampling draw — the "why was that
	// request 40ms" net.
	SlowThreshold time.Duration
	// RingSize caps the recent-traces ring served at /v1/debug/traces.
	// Defaults to 64.
	RingSize int
}

// Tracer hands out pooled traces, decides which to keep, and serves the
// recent ring. All methods are nil-safe so call sites need no
// enabled-checks, and the disabled (-trace-sample 0) configuration is
// literally a nil pointer — zero overhead, zero allocation.
type Tracer struct {
	node  string
	every uint64 // head-sample 1 in every
	slow  time.Duration

	seq  atomic.Uint64
	ids  atomic.Uint64
	free chan *Trace

	mu   sync.Mutex
	ring []*Trace // nil slots until the ring fills
	next int

	started   atomic.Uint64
	published atomic.Uint64
	slowKept  atomic.Uint64
}

// NewTracer builds a tracer, or returns nil when cfg.SampleRate <= 0:
// a zero sample rate disables tracing entirely, slow capture included —
// that is the -trace-sample 0 "exactly zero overhead" contract.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.SampleRate <= 0 {
		return nil
	}
	every := uint64(math.Round(1 / cfg.SampleRate))
	if every < 1 {
		every = 1
	}
	ring := cfg.RingSize
	if ring <= 0 {
		ring = 64
	}
	if cfg.Node == "" {
		cfg.Node = "local"
	}
	tr := &Tracer{
		node:  cfg.Node,
		every: every,
		slow:  cfg.SlowThreshold,
		free:  make(chan *Trace, 256),
		ring:  make([]*Trace, ring),
	}
	// Scatter trace IDs across nodes: same counter sequence, different
	// node prefix.
	h := fnv.New64a()
	h.Write([]byte(cfg.Node))
	tr.ids.Store(h.Sum64() << 20)
	return tr
}

// Enabled reports whether the tracer records anything.
func (tr *Tracer) Enabled() bool { return tr != nil }

func (tr *Tracer) get() *Trace {
	select {
	case t := <-tr.free:
		return t
	default:
		return &Trace{}
	}
}

// Release returns a trace to the pool without publishing. Only needed by
// owners of remote traces (see StartRemote); local traces are reclaimed
// by Finish.
func (tr *Tracer) Release(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	t.reset()
	select {
	case tr.free <- t:
	default:
	}
}

// Start begins a trace for one request. Every request gets a (pooled)
// trace while the tracer is enabled — the slow-threshold rule needs the
// spans even for requests that lost the sampling draw; Finish recycles
// the unkept ones. Returns nil on a nil tracer.
func (tr *Tracer) Start(path string) *Trace {
	if tr == nil {
		return nil
	}
	t := tr.get()
	t.ID = tr.ids.Add(1)
	t.Node = tr.node
	t.Path = path
	t.Begin = time.Now()
	t.sampled = tr.every == 1 || tr.seq.Add(1)%tr.every == 0
	tr.started.Add(1)
	return t
}

// StartRemote begins a trace on behalf of a forwarding origin node: the
// origin's trace ID is kept so the stitched trace is one logical trace,
// and the result is never published here — the forward handler harvests
// its spans into the ForwardResponse and must Release it.
func (tr *Tracer) StartRemote(id uint64, path string) *Trace {
	if tr == nil {
		return nil
	}
	t := tr.get()
	t.ID = id
	t.Node = tr.node
	t.Path = path
	t.Begin = time.Now()
	t.sampled = true
	t.remote = true
	tr.started.Add(1)
	return t
}

// Finish completes a trace: head-sampled traces and traces at or over
// the slow threshold are published to the recent ring; everything else
// is recycled. Remote traces are left untouched for their forward
// handler. Nil-safe.
func (tr *Tracer) Finish(t *Trace, total time.Duration) {
	if tr == nil || t == nil {
		return
	}
	t.Total = total
	if t.remote {
		return
	}
	if t.sampled {
		tr.publish(t)
		return
	}
	if tr.slow > 0 && total >= tr.slow {
		t.slow = true
		tr.slowKept.Add(1)
		tr.publish(t)
		return
	}
	tr.Release(t)
}

// Abandon releases a trace without publishing — the request-error exit.
// Remote traces are left alone (their forward handler still harvests and
// releases them). Nil-safe on both sides.
func (tr *Tracer) Abandon(t *Trace) {
	if tr == nil || t == nil || t.remote {
		return
	}
	tr.Release(t)
}

func (tr *Tracer) publish(t *Trace) {
	tr.published.Add(1)
	tr.mu.Lock()
	old := tr.ring[tr.next]
	tr.ring[tr.next] = t
	tr.next = (tr.next + 1) % len(tr.ring)
	tr.mu.Unlock()
	if old != nil {
		tr.Release(old)
	}
}

// Stats reports lifetime counters: traces started, published to the
// ring, and published by the slow rule specifically.
func (tr *Tracer) Stats() (started, published, slow uint64) {
	if tr == nil {
		return 0, 0, 0
	}
	return tr.started.Load(), tr.published.Load(), tr.slowKept.Load()
}

// TraceSnapshot is the JSON form of one published trace.
type TraceSnapshot struct {
	ID          string         `json:"id"`
	Node        string         `json:"node"`
	Path        string         `json:"path"`
	User        string         `json:"user,omitempty"`
	Begin       time.Time      `json:"begin"`
	TotalMicros int64          `json:"total_micros"`
	Hit         bool           `json:"hit"`
	Status      int            `json:"status,omitempty"`
	Slow        bool           `json:"slow,omitempty"`
	Spans       []SpanSnapshot `json:"spans"`
}

// SpanSnapshot is the JSON form of one span.
type SpanSnapshot struct {
	Kind        string `json:"kind"`
	Node        string `json:"node,omitempty"`
	Tier        string `json:"tier,omitempty"`
	Candidates  int32  `json:"candidates,omitempty"`
	StartMicros int64  `json:"start_micros"`
	DurMicros   int64  `json:"dur_micros"`
}

// Recent snapshots the published-trace ring, newest first.
func (tr *Tracer) Recent() []TraceSnapshot {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(tr.ring))
	for i := 0; i < len(tr.ring); i++ {
		// Walk backwards from the most recently written slot.
		idx := (tr.next - 1 - i + 2*len(tr.ring)) % len(tr.ring)
		t := tr.ring[idx]
		if t == nil {
			continue
		}
		snap := TraceSnapshot{
			ID:          fmt.Sprintf("%016x", t.ID),
			Node:        t.Node,
			Path:        t.Path,
			User:        t.User,
			Begin:       t.Begin,
			TotalMicros: t.Total.Microseconds(),
			Hit:         t.Hit,
			Status:      t.Status,
			Slow:        t.slow,
			Spans:       make([]SpanSnapshot, 0, t.n),
		}
		for _, sp := range t.spans[:t.n] {
			snap.Spans = append(snap.Spans, SpanSnapshot{
				Kind:        sp.Kind.String(),
				Node:        sp.Node,
				Tier:        TierName(sp.Tier),
				Candidates:  sp.Candidates,
				StartMicros: sp.Start.Microseconds(),
				DurMicros:   sp.Dur.Microseconds(),
			})
		}
		out = append(out, snap)
	}
	return out
}

// Handler serves the recent-trace ring as JSON — the /v1/debug/traces
// endpoint.
func (tr *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Traces []TraceSnapshot `json:"traces"`
		}{Traces: tr.Recent()})
	})
}

// traceKey carries a *Trace through a request context — how cluster mode
// hands the remote trace to the serving handlers without changing their
// signatures.
type traceKey struct{}

// ContextWithTrace attaches t to ctx.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the trace attached by ContextWithTrace, or nil.
// The lookup key is a zero-size struct, so calling this on a context
// without a trace performs no allocation.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
