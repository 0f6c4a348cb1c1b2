package experiments

import (
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/gptcache"
	"repro/internal/index"
	"repro/internal/llmsim"
	"repro/internal/metrics"
)

// System adapts MeanCache and the GPTCache baseline to one probe surface
// so the workload runners treat them uniformly.
type System interface {
	// Name labels result rows.
	Name() string
	// Populate loads the cached workload entries (standalone queries, or
	// contextual entries whose Context arity defines their chain).
	Populate(queries []dataset.CtxQuery, llm *llmsim.Service)
	// Probe submits one query with its conversation context, returning
	// the hit decision and the end-to-end latency. enroll controls
	// whether a miss is inserted into the cache (end-to-end deployment)
	// or not (fixed-population protocols like §IV-C).
	Probe(q string, ctx []string, llm *llmsim.Service, enroll bool) (hit bool, latency time.Duration)
	// SearchStats reports cumulative mean semantic-search time.
	SearchStats() time.Duration
	// StorageBytes reports current cache storage.
	StorageBytes() int64
}

// exactIndex pins every experiment's MeanCache client to the exact scan:
// the paper's FindSimilarQueriesInCache is exact, and Figure 10 caches
// 1,000–3,000 entries at 768-d, past where a serving tenant's adaptive
// index would have promoted to an approximate tier.
func exactIndex(dim int) index.Index { return index.NewFlat(dim) }

// meanCacheSystem wraps core.Client.
type meanCacheSystem struct {
	name   string
	client *core.Client
	// ids maps workload cached-index -> cache entry ID, for parent links.
	ids []int
}

// NewMeanCacheSystem builds a System around a MeanCache client using enc
// and tau.
func NewMeanCacheSystem(name string, enc embed.Encoder, tau float64) System {
	return &meanCacheSystem{
		name: name,
		client: core.New(core.Options{
			Encoder:      enc,
			Tau:          float32(tau),
			TopK:         5,
			IndexFactory: exactIndex,
		}),
	}
}

func (m *meanCacheSystem) Name() string { return m.name }

func (m *meanCacheSystem) Populate(queries []dataset.CtxQuery, llm *llmsim.Service) {
	m.ids = make([]int, len(queries))
	for i, q := range queries {
		resp, _ := llm.Query(q.Text)
		parent := cache.NoParent
		if len(q.Context) > 0 {
			// The workload lays out conversations as parent at index i-N
			// for follow-up at index i (see dataset.GenerateContextualWorkload);
			// recover the parent by matching the context text.
			parent = m.parentFor(queries, i)
		}
		id, err := m.client.Insert(q.Text, resp, parent)
		if err != nil {
			panic("experiments: populate: " + err.Error())
		}
		m.ids[i] = id
	}
}

// parentFor resolves the cached parent entry for follow-up i: the cached
// entry whose text equals the follow-up's (single-turn) context.
func (m *meanCacheSystem) parentFor(queries []dataset.CtxQuery, i int) int {
	ctx := queries[i].Context[len(queries[i].Context)-1]
	for j := 0; j < i; j++ {
		if queries[j].Text == ctx {
			return m.ids[j]
		}
	}
	return cache.NoParent
}

func (m *meanCacheSystem) Probe(q string, ctx []string, llm *llmsim.Service, enroll bool) (bool, time.Duration) {
	res := m.client.Lookup(q, ctx)
	if res.Hit {
		return true, res.Latency
	}
	resp, took := llm.Query(q)
	if enroll {
		// Standalone protocol: enrol the miss.
		if _, err := m.client.Insert(q, resp, cache.NoParent); err != nil {
			panic("experiments: enroll: " + err.Error())
		}
	}
	return false, res.SearchTime + took
}

func (m *meanCacheSystem) SearchStats() time.Duration { return m.client.Stats().MeanSearch }
func (m *meanCacheSystem) StorageBytes() int64        { return m.client.Cache().StorageBytes() }

// gptCacheSystem wraps the baseline. Context is ignored by design; the
// NetworkRTT models the server-side round trip.
type gptCacheSystem struct {
	name string
	g    *gptcache.Cache
	rtt  time.Duration

	searches int
	search   time.Duration
}

// NewGPTCacheSystem builds the baseline System at its paper configuration
// (fixed τ, no context), with an optional server round-trip latency.
func NewGPTCacheSystem(name string, enc embed.Encoder, tau float64, rtt time.Duration) System {
	return &gptCacheSystem{
		name: name,
		g: gptcache.New(gptcache.Options{
			Encoder: enc,
			Tau:     float32(tau),
			TopK:    1,
		}),
		rtt: rtt,
	}
}

func (g *gptCacheSystem) Name() string { return g.name }

func (g *gptCacheSystem) Populate(queries []dataset.CtxQuery, llm *llmsim.Service) {
	for _, q := range queries {
		resp, _ := llm.Query(q.Text)
		if _, err := g.g.Insert(q.Text, resp); err != nil {
			panic("experiments: populate: " + err.Error())
		}
	}
}

func (g *gptCacheSystem) Probe(q string, _ []string, llm *llmsim.Service, enroll bool) (bool, time.Duration) {
	res := g.g.Lookup(q)
	g.searches++
	g.search += res.SearchTime
	if res.Hit {
		return true, res.Latency + g.rtt
	}
	resp, took := llm.Query(q)
	if enroll {
		if _, err := g.g.Insert(q, resp); err != nil {
			panic("experiments: enroll: " + err.Error())
		}
	}
	return false, res.SearchTime + g.rtt + took
}

func (g *gptCacheSystem) SearchStats() time.Duration {
	if g.searches == 0 {
		return 0
	}
	return g.search / time.Duration(g.searches)
}

func (g *gptCacheSystem) StorageBytes() int64 { return g.g.Store().StorageBytes() }

// ProbeOutcome records one probe's ground truth and prediction, feeding
// both the confusion matrices and the per-query label strips of
// Figures 6 and 8.
type ProbeOutcome struct {
	Dup     bool
	Hit     bool
	Latency time.Duration
}

// RunStandalone populates sys with the workload's cached queries and plays
// all probes (enrolling misses, the end-to-end deployment of §IV-B),
// returning per-probe outcomes.
func RunStandalone(sys System, w *dataset.CacheWorkload, llm *llmsim.Service) []ProbeOutcome {
	cached := make([]dataset.CtxQuery, len(w.Cached))
	for i, q := range w.Cached {
		cached[i] = dataset.CtxQuery{Text: q, DupOf: -1}
	}
	sys.Populate(cached, llm)
	out := make([]ProbeOutcome, len(w.Probes))
	for i, p := range w.Probes {
		hit, lat := sys.Probe(p.Text, nil, llm, true)
		out[i] = ProbeOutcome{Dup: p.DupOf >= 0, Hit: hit, Latency: lat}
	}
	return out
}

// RunContextual populates sys with the contextual cache and plays the 250
// probes against the fixed population (§IV-C protocol: no enrolment).
func RunContextual(sys System, w *dataset.ContextualWorkload, llm *llmsim.Service) []ProbeOutcome {
	sys.Populate(w.Cached, llm)
	out := make([]ProbeOutcome, len(w.Probes))
	for i, p := range w.Probes {
		hit, lat := sys.Probe(p.Text, p.Context, llm, false)
		out[i] = ProbeOutcome{Dup: p.DupOf >= 0, Hit: hit, Latency: lat}
	}
	return out
}

// Confusion folds outcomes into the hit/miss confusion matrix.
func Confusion(outcomes []ProbeOutcome) metrics.Confusion {
	var c metrics.Confusion
	for _, o := range outcomes {
		c.Add(o.Dup, o.Hit)
	}
	return c
}
