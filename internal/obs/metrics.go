// Package obs is the observability layer: a low-overhead metrics
// registry exported in Prometheus text format (metrics.go,
// prometheus.go) and a pooled per-request span tracer with head sampling
// and slow-trace capture (trace.go). Both are built for the serving hot
// path — metric updates are lock-free atomics and a warmed traced
// request performs no allocation — so instrumentation can stay on in
// production without disturbing the latencies it measures.
package obs

import (
	"fmt"
	"hash/fnv"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them as Prometheus text
// exposition. Registration (Counter, Gauge, Histogram, …) takes a shard
// lock and is expected at startup; the returned handles update via
// lock-free atomics, so the hot path never contends on the registry. The
// family map is sharded by name hash so even registration-time lookups
// from many goroutines do not serialise.
type Registry struct {
	shards [registryShards]registryShard
}

const registryShards = 8

type registryShard struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name string
	help string
	kind metricKind

	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

// series is one labelled instance within a family. Exactly one of the
// value fields is set, matching the family kind.
type series struct {
	labels []Label // sorted by name
	key    string  // canonical rendered label set, e.g. `tier="flat"`

	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	counterFn func() float64
	gaugeFn   func() float64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].families = make(map[string]*family)
	}
	return r
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func (r *Registry) family(name, help string, kind metricKind) *family {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	sh := &r.shards[h.Sum32()%registryShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		sh.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// canonical sorts labels by name and renders the canonical series key.
// The returned slice is a copy; the caller's labels are not modified.
func canonical(labels []Label) ([]Label, string) {
	if len(labels) == 0 {
		return nil, ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	key := ""
	for i, l := range ls {
		if !labelNameRE.MatchString(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Name))
		}
		if i > 0 {
			key += ","
		}
		key += l.Name + `="` + escapeLabelValue(l.Value) + `"`
	}
	return ls, key
}

// seriesFor returns the family's series for the label set, creating it
// via mk on first registration. Re-registering an existing series
// returns the original, so package-level wiring can be idempotent.
func (f *family) seriesFor(labels []Label, mk func(*series)) *series {
	ls, key := canonical(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labels: ls, key: key}
	mk(s)
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// Counter registers (or fetches) a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.family(name, help, kindCounter).seriesFor(labels, func(s *series) {
		s.counter = &Counter{}
	})
	if s.counter == nil {
		panic(fmt.Sprintf("obs: metric %q re-registered over a callback series", name))
	}
	return s.counter
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for subsystems that already keep their own atomic
// counters. fn must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.family(name, help, kindCounter).seriesFor(labels, func(s *series) {
		s.counterFn = fn
	})
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.family(name, help, kindGauge).seriesFor(labels, func(s *series) {
		s.gauge = &Gauge{}
	})
	if s.gauge == nil {
		panic(fmt.Sprintf("obs: metric %q re-registered over a callback series", name))
	}
	return s.gauge
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.family(name, help, kindGauge).seriesFor(labels, func(s *series) {
		s.gaugeFn = fn
	})
}

// Histogram registers (or fetches) a fixed-boundary histogram. bounds
// must be strictly increasing upper bucket bounds (the +Inf bucket is
// implicit); all series of one family must share them.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: metric %q bounds not strictly increasing", name))
		}
	}
	f := r.family(name, help, kindHistogram)
	s := f.seriesFor(labels, func(s *series) {
		s.hist = newHistogram(bounds)
	})
	if len(s.hist.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: metric %q re-registered with different bounds", name))
	}
	for i, b := range bounds {
		if s.hist.bounds[i] != b {
			panic(fmt.Sprintf("obs: metric %q re-registered with different bounds", name))
		}
	}
	return s.hist
}

// Counter is a monotonically increasing counter. The zero value is ready
// to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 gauge. The zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (CAS loop; gauges are read-mostly).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-boundary histogram: per-bucket atomic counts plus
// an exact sum/count — constant memory however long the process runs,
// unlike a reservoir. Observe is lock-free and allocation-free.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds — the Prometheus base unit for
// time.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the exact sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefLatencyBounds are the default request/stage latency bucket bounds in
// seconds: 25µs to 2.5s, roughly ×2 per step — tight where the cache hit
// path lives, wide enough to bucket a slow upstream LLM call.
var DefLatencyBounds = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
	250e-3, 500e-3, 1, 2.5,
}
