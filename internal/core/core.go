// Package core implements MeanCache itself: the user-centric semantic cache
// of §III. A Client owns a local semantic cache and an embedding encoder;
// queries are served from the cache when a semantically similar cached
// query with a matching context chain exists, and forwarded to the LLM web
// service otherwise (Algorithm 1). The encoder and the similarity threshold
// are typically produced by federated fine-tuning (internal/fl), and the
// encoder may carry a PCA compression layer (internal/pca via
// embed.WithProjection).
//
// The package exposes two query surfaces:
//
//   - Session: stateful conversations. Session.Ask tracks the conversation
//     history and parent entry, so contextual queries are cached with their
//     chain automatically.
//   - Client.Lookup / Client.Insert: the stateless primitives that
//     internal/experiments and cmd/meancache use, where probes arrive with
//     explicit contexts.
package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/embed"
	"repro/internal/index"
	"repro/internal/resilience"
	"repro/internal/vecmath"
)

// LLM is the upstream web service MeanCache fronts; a miss calls
// QueryContext. It returns the response text and how long the service
// took (simulated or wall-clock). Implementations honour ctx's deadline
// and cancellation and report failures as errors, so the request's
// context reaches the upstream call and shed decisions
// (resilience.Rejection) surface to the serving layer. llmsim.Service,
// llmsim.Client and resilience.Guard implement it.
type LLM interface {
	QueryContext(ctx context.Context, q string) (response string, took time.Duration, err error)
}

// ContextLLM is LLM.
//
// Deprecated: LLM has only the context-aware method now. The alias stays
// only because the frozen bench/trace.go names it, and goes in the
// benchmark PR that re-captures BENCHMARK.json.
type ContextLLM = LLM

// DefaultTopK is the candidate count of Options that set no TopK.
const DefaultTopK = 5

// Options configures a Client.
type Options struct {
	// Encoder produces query embeddings. Required.
	Encoder embed.Encoder
	// LLM is the upstream service. Required for Query/Ask; Lookup-only
	// harness use may leave it nil.
	LLM LLM
	// Tau is the cosine-similarity threshold for a query match — the
	// τ of §III-A.2, learnt per user and aggregated globally by FL.
	Tau float32
	// CtxTau is the threshold for matching conversation context turns
	// against a cached entry's chain. Defaults to Tau when zero.
	CtxTau float32
	// TopK bounds how many similar candidates are context-checked per
	// query (Algorithm 1 retrieves the top-k similar cached queries).
	// Defaults to DefaultTopK.
	TopK int
	// Capacity bounds the local cache (0 = unbounded); Policy picks
	// eviction victims (default LRU, as in Figure 1).
	Capacity int
	Policy   cache.Policy
	// IndexFactory builds the vector index backing the cache's
	// similarity search. Nil, which is what every serving stack passes,
	// means index.NewAdaptive with its zero config: the cache's size
	// picks the tier (exact scan up to the constant index.DefaultFlatMax
	// entries, then an IVF rebuilt as the cache grows). Tests and
	// internal/experiments set it to pin one tier. The serving layer
	// calls it again when reviving a persisted tenant.
	IndexFactory func(dim int) index.Index
	// FeedbackStep is how much a false-hit report raises Tau (§III-A.2:
	// the threshold adapts from user feedback). Zero disables adjustment.
	FeedbackStep float32
	// DegradedTauDelta enables cache-only degraded serving: when the
	// upstream is unavailable (the miss path returns a cache-only
	// rejection, i.e. the circuit breaker is open), the lookup is retried
	// at τ − DegradedTauDelta. A stale-ish cached answer beats a 503
	// while the upstream heals. Zero disables the degraded retry.
	DegradedTauDelta float32
	// Searcher, when non-nil, routes every similarity search — Lookup's
	// and the degraded (cache-only) retry's — through a substitute for
	// the direct FindSimilarAppend (nil), such as a timing decorator; its
	// matches must be identical.
	Searcher cache.Searcher
	// Deprecated: MaintenanceGate is read by nothing. The field stays
	// only because the frozen bench/stack.go sets it, and goes in the
	// benchmark PR that re-captures BENCHMARK.json.
	MaintenanceGate struct{}
}

// Client is a MeanCache instance: one user's local semantic cache plus the
// machinery to consult it.
//
// Concurrency contract (relied upon by internal/server, which multiplexes
// many goroutines onto one Client per tenant):
//
//   - Lookup, Insert, Query, ReportFalseHit, ReportMissedHit, Tau, SetTau,
//     Reembed, Stats and Cache are all safe for unrestricted concurrent
//     use. Cache state is guarded by the cache's own lock, the threshold
//     by an atomic, and the activity counters by atomics.
//   - A Session is NOT safe for concurrent use: it carries mutable
//     conversation state (history, parent). Callers must confine each
//     Session to one goroutine or serialise Ask calls externally (the
//     server holds a per-session mutex). Distinct Sessions of the same
//     Client may run concurrently.
//   - The Encoder must be safe for concurrent Encode calls (every encoder
//     in internal/embed is, once training stops).
type Client struct {
	opts  Options
	cache *cache.Cache
	// tau holds math.Float32bits of the current threshold; CAS keeps
	// concurrent feedback adjustments from losing updates.
	tau atomic.Uint32

	// probeBufs and matchBufs are bounded free lists (channel-backed, so
	// recycling a slice never boxes it into an interface) for the two
	// per-request buffers of the query hot path: the probe embedding and
	// the candidate match list. A query takes one of each and returns
	// both before it returns: the probe once the miss path's fill has
	// copied it, the match list once a candidate is picked.
	probeBufs chan []float32
	matchBufs chan []cache.Match

	// activity counters for the experiments and the serving stats API
	llmQueries   atomic.Int64
	cacheHits    atomic.Int64
	degradedHits atomic.Int64
	searchNanos  atomic.Int64
	searchCount  atomic.Int64
}

// New builds a Client. It panics if no encoder is supplied, because every
// other operation is meaningless without one.
func New(opts Options) *Client {
	if opts.Encoder == nil {
		panic("core: Options.Encoder is required")
	}
	if opts.Policy == nil {
		opts.Policy = cache.LRU{}
	}
	if opts.IndexFactory == nil {
		opts.IndexFactory = adaptiveIndex
	}
	dim := opts.Encoder.Dim()
	return NewWithCache(opts, cache.NewWithIndex(dim, opts.Capacity, opts.Policy, opts.IndexFactory(dim)))
}

// adaptiveIndex is the index every tenant's cache gets unless a test or
// experiment pins another: the one place a serving index is chosen.
func adaptiveIndex(dim int) index.Index {
	return index.NewAdaptive(dim, index.AdaptiveConfig{})
}

// NewWithCache builds a Client around an existing cache — typically one
// rebuilt from persistent storage with cache.LoadFromWithIndex, as the
// serving layer does when it revives an evicted tenant. The cache's
// dimension must match the encoder's.
func NewWithCache(opts Options, cc *cache.Cache) *Client {
	if opts.Encoder == nil {
		panic("core: Options.Encoder is required")
	}
	if opts.IndexFactory == nil {
		opts.IndexFactory = adaptiveIndex
	}
	if opts.TopK <= 0 {
		opts.TopK = DefaultTopK
	}
	if opts.CtxTau == 0 {
		opts.CtxTau = opts.Tau
	}
	if opts.Searcher == nil {
		opts.Searcher = cache.DirectSearcher{}
	}
	c := &Client{
		opts:      opts,
		cache:     cc,
		probeBufs: make(chan []float32, 64),
		matchBufs: make(chan []cache.Match, 64),
	}
	c.tau.Store(math.Float32bits(opts.Tau))
	return c
}

// Cache exposes the underlying semantic cache (for persistence and the
// storage experiments).
func (c *Client) Cache() *cache.Cache { return c.cache }

// Options returns a copy of the client's configuration (with defaults
// applied), so a serving layer can rebuild an equivalent client around a
// reloaded cache. Note Tau() — not Options().Tau — is the live threshold.
func (c *Client) Options() Options { return c.opts }

// Tau reports the current similarity threshold.
func (c *Client) Tau() float32 { return math.Float32frombits(c.tau.Load()) }

// Result is the outcome of one query.
type Result struct {
	// Response is the text returned to the user.
	Response string
	// Hit reports whether the response came from the local cache.
	Hit bool
	// Entry is the matched cache entry on a hit, nil otherwise.
	Entry *cache.Entry
	// Score is the cosine similarity of the match (hits only).
	Score float32
	// Latency is the end-to-end time: semantic search for hits, search
	// plus LLM time for misses.
	Latency time.Duration
	// SearchTime isolates the semantic-search component of Latency
	// (probe encoding included — the historical meaning).
	SearchTime time.Duration
	// EncodeTime isolates the probe-encoding portion of SearchTime. The
	// index search proper is SearchTime - EncodeTime.
	EncodeTime time.Duration
	// UpstreamTime is the LLM call duration (misses only).
	UpstreamTime time.Duration
	// FillTime is the cache-insertion duration (misses only).
	FillTime time.Duration
	// Candidates counts the similar entries the index returned before
	// context filtering.
	Candidates int
	// Tier names the index tier that served the search ("flat" or
	// "ivf").
	Tier string
	// Degraded marks a hit served in cache-only degraded mode: the
	// upstream was unavailable and the match cleared only the relaxed
	// threshold (τ − DegradedTauDelta), not τ itself.
	Degraded bool
}

// encodeProbe embeds q, reusing a recycled probe buffer when the encoder
// supports the pooled path (embed.IntoEncoder).
func (c *Client) encodeProbe(q string) []float32 {
	ie, ok := c.opts.Encoder.(embed.IntoEncoder)
	if !ok {
		return c.opts.Encoder.Encode(q)
	}
	return ie.EncodeInto(q, c.probeBuf())
}

// probeBuf takes an empty embedding-sized buffer from the probe pool.
func (c *Client) probeBuf() []float32 {
	select {
	case buf := <-c.probeBufs:
		return buf[:0]
	default:
		return make([]float32, 0, c.opts.Encoder.Dim())
	}
}

// putProbeBuf returns buf to the probe pool (or drops it when full).
func (c *Client) putProbeBuf(buf []float32) {
	select {
	case c.probeBufs <- buf[:0]:
	default:
	}
}

// Lookup runs the cache-decision half of Algorithm 1: embed q, find similar
// cached queries, and verify the context chain of each candidate against
// ctxTexts (the conversation history, oldest first; empty for standalone
// queries). It performs no insertion and no LLM call.
func (c *Client) Lookup(q string, ctxTexts []string) Result {
	res, probe := c.lookup(q, ctxTexts)
	c.putProbeBuf(probe)
	return res
}

// lookup is Lookup handing back the probe embedding, a pooled buffer the
// caller must return with putProbeBuf exactly once.
func (c *Client) lookup(q string, ctxTexts []string) (Result, []float32) {
	start := time.Now()
	probe := c.encodeProbe(q)
	res := Result{EncodeTime: time.Since(start), Tier: c.cache.ServingTier()}
	res.Candidates = c.match(&res, probe, ctxTexts, c.Tau())
	res.SearchTime = time.Since(start)
	res.Latency = res.SearchTime
	c.searchNanos.Add(int64(res.SearchTime))
	c.searchCount.Add(1)
	if res.Hit {
		c.cacheHits.Add(1)
	}
	return res, probe
}

// match is Algorithm 1's search and context check at threshold tau: it
// finds probe's similar cached queries through Options.Searcher and makes
// res a hit on the first whose context chain agrees with ctxTexts. It
// returns the number of candidates the search found.
func (c *Client) match(res *Result, probe []float32, ctxTexts []string, tau float32) int {
	var mbuf []cache.Match
	select {
	case mbuf = <-c.matchBufs:
	default:
	}
	matches := c.opts.Searcher.FindSimilar(c.cache, probe, c.opts.TopK, tau, mbuf[:0])
	if m, ok := c.pickMatch(matches, ctxTexts); ok {
		res.Response = m.Entry.Response
		res.Hit = true
		res.Entry = m.Entry
		res.Score = m.Score
	}
	return len(matches)
}

// pickMatch returns the best of matches whose context chain agrees with
// ctxTexts, marked used, and recycles the match buffer: matches is dead
// once it returns (a Result keeps only the matched *Entry). However many
// candidates it checks, each context turn is encoded at most once.
func (c *Client) pickMatch(matches []cache.Match, ctxTexts []string) (hit cache.Match, ok bool) {
	// turns[i] is the embedding of ctxTexts[i], nil until a candidate's
	// chain reaches that turn.
	var turns [][]float32
	for _, m := range matches {
		if c.contextMatches(m.Entry, ctxTexts, &turns) {
			c.cache.Touch(m.Entry.ID)
			hit, ok = m, true
			break
		}
	}
	for _, ce := range turns {
		if ce != nil {
			c.putProbeBuf(ce)
		}
	}
	for i := range matches { // scrub the entry pointers
		matches[i] = cache.Match{}
	}
	select {
	case c.matchBufs <- matches[:0]:
	default:
	}
	return hit, ok
}

// contextMatches verifies Algorithm 1's context check: a standalone entry
// (empty chain) matches only an empty conversation context, and a
// contextual entry matches when each turn of its chain is semantically
// similar (≥ CtxTau) to the corresponding trailing turn of the submitted
// context. turns is pickMatch's memo of the context embeddings. Each
// ancestor's embedding is read from the cache into one pooled buffer; an
// ancestor evicted since the chain was read is a mismatch.
func (c *Client) contextMatches(e *cache.Entry, ctxTexts []string, turns *[][]float32) bool {
	chain := c.cache.Chain(e.ID)
	if len(chain) == 0 {
		return len(ctxTexts) == 0
	}
	if len(ctxTexts) < len(chain) {
		return false
	}
	if *turns == nil {
		*turns = make([][]float32, len(ctxTexts))
	}
	first := len(ctxTexts) - len(chain) // the turn the chain's oldest entry answers to
	vec := c.probeBuf()
	match := true
	for i, ancestor := range chain {
		turn := first + i
		if (*turns)[turn] == nil {
			(*turns)[turn] = c.encodeProbe(ctxTexts[turn])
		}
		var ok bool
		vec, ok = c.cache.Vector(ancestor.ID, vec[:0])
		if !ok || !(vecmath.Dot((*turns)[turn], vec) >= c.opts.CtxTau) { // a NaN score is a mismatch
			match = false
			break
		}
	}
	c.putProbeBuf(vec)
	return match
}

// Insert caches a query/response pair. parent is the cache entry ID of the
// conversational parent, or cache.NoParent for standalone queries. Returns
// the new entry's ID.
func (c *Client) Insert(q, response string, parent int) (int, error) {
	eq := c.opts.Encoder.Encode(q)
	return c.cache.Put(q, response, eq, parent)
}

// Query is the full Algorithm 1 for a standalone query: Lookup, then on a
// miss consult the LLM and enrol the result in the cache.
func (c *Client) Query(q string) (Result, error) {
	return c.queryWithContext(context.Background(), q, nil, cache.NoParent)
}

// QueryContext is Query with the request's context threaded through to
// the upstream call: client disconnects cancel the in-flight LLM call,
// deadlines propagate, and upstream shed decisions surface as
// *resilience.Rejection errors.
func (c *Client) QueryContext(ctx context.Context, q string) (Result, error) {
	return c.queryWithContext(ctx, q, nil, cache.NoParent)
}

func (c *Client) queryWithContext(ctx context.Context, q string, ctxTexts []string, parent int) (Result, error) {
	res, probe := c.lookup(q, ctxTexts)
	defer c.putProbeBuf(probe)
	if res.Hit {
		return res, nil
	}
	if c.opts.LLM == nil {
		return res, fmt.Errorf("core: cache miss and no LLM configured")
	}
	resp, took, err := c.opts.LLM.QueryContext(ctx, q)
	if err != nil {
		res.UpstreamTime = took
		// Breaker open: the upstream is unreachable but the cache is
		// not — retry the lookup at the relaxed degraded threshold
		// before giving up on the request.
		if rej, isRej := resilience.AsRejection(err); isRej && rej.CacheOnly && c.degradedLookup(&res, probe, ctxTexts) {
			return res, nil
		}
		return res, err
	}
	c.llmQueries.Add(1)
	res.UpstreamTime = took
	// Reuse the embedding lookup already computed rather than paying a
	// second encode on every miss.
	fillStart := time.Now()
	id, err := c.cache.Put(q, resp, probe, parent)
	if err != nil && parent != cache.NoParent {
		// The conversational parent was evicted since the session last
		// touched it. Re-root rather than failing the query forever: the
		// entry is cached standalone and the session chains from it.
		parent = cache.NoParent
		id, err = c.cache.Put(q, resp, probe, parent)
	}
	if err != nil {
		return res, fmt.Errorf("core: enrolling response: %w", err)
	}
	entry, _ := c.cache.Get(id)
	res.FillTime = time.Since(fillStart)
	res.Response = resp
	res.Entry = entry
	res.Latency = res.SearchTime + took
	return res, nil
}

// degradedLookup retries a missed lookup of probe at the relaxed
// degraded threshold (τ − DegradedTauDelta). It mutates res into a
// degraded hit and returns true when a context-consistent match clears
// the relaxed bar.
func (c *Client) degradedLookup(res *Result, probe []float32, ctxTexts []string) bool {
	if c.opts.DegradedTauDelta <= 0 {
		return false
	}
	tau := max(c.Tau()-c.opts.DegradedTauDelta, 0)
	start := time.Now()
	c.match(res, probe, ctxTexts, tau)
	res.Degraded = res.Hit
	res.SearchTime += time.Since(start)
	res.Latency = res.SearchTime + res.UpstreamTime
	if res.Hit {
		c.cacheHits.Add(1)
		c.degradedHits.Add(1)
	}
	return res.Hit
}

// ReportFalseHit is the user-feedback signal of §III-A.2: the user re-asked
// the LLM after a cache hit, so the hit was wrong. The threshold rises by
// FeedbackStep (clamped to 1) to make future matches stricter.
func (c *Client) ReportFalseHit() {
	if c.opts.FeedbackStep > 0 {
		c.adjustTau(c.opts.FeedbackStep)
	}
}

// ReportMissedHit is the complementary feedback signal of the online FL
// loop: the user indicates a query should have been answered from the
// cache (a missed duplicate), so the threshold drops by FeedbackStep
// (clamped to 0) to make future matches more permissive. Like
// ReportFalseHit it is a coarse per-user adjustment; the federated τ
// search refines both signals into the aggregated global threshold.
func (c *Client) ReportMissedHit() {
	if c.opts.FeedbackStep > 0 {
		c.adjustTau(-c.opts.FeedbackStep)
	}
}

// adjustTau applies a feedback step to τ with a lost-update-free CAS,
// clamping to [0, 1].
func (c *Client) adjustTau(delta float32) {
	for {
		old := c.tau.Load()
		tau := math.Float32frombits(old) + delta
		if tau > 1 {
			tau = 1
		}
		if tau < 0 {
			tau = 0
		}
		if c.tau.CompareAndSwap(old, math.Float32bits(tau)) {
			return
		}
	}
}

// SetTau installs a new threshold (e.g. a freshly aggregated τ_global).
func (c *Client) SetTau(tau float32) { c.tau.Store(math.Float32bits(tau)) }

// Reembed migrates every cached entry to the client's current encoder —
// the per-tenant half of a hot model rollout. The serving layer swaps the
// shared encoder (an embed.Swappable) first, then calls Reembed on each
// resident tenant so cached embeddings rejoin the probe embedding space.
// Queries are never blocked: the cache applies updates in short batches
// (see cache.Reembed). Returns the number of entries migrated.
func (c *Client) Reembed() (int, error) {
	return c.cache.Reembed(c.opts.Encoder.Encode)
}

// Stats summarises the client's activity.
type Stats struct {
	LLMQueries int
	CacheHits  int
	// DegradedHits counts hits served in cache-only degraded mode (a
	// subset of CacheHits).
	DegradedHits  int
	Lookups       int
	MeanSearch    time.Duration
	CacheEntries  int
	StorageBytes  int64
	EmbeddingDims int
}

// Stats returns a snapshot of activity counters. The counters are read
// individually, so a snapshot taken during concurrent traffic is
// internally approximate (e.g. Lookups may include a search whose hit is
// not yet counted) but each counter is exact.
func (c *Client) Stats() Stats {
	n := c.searchCount.Load()
	s := Stats{
		LLMQueries:    int(c.llmQueries.Load()),
		CacheHits:     int(c.cacheHits.Load()),
		DegradedHits:  int(c.degradedHits.Load()),
		Lookups:       int(n),
		CacheEntries:  c.cache.Len(),
		StorageBytes:  c.cache.StorageBytes(),
		EmbeddingDims: c.opts.Encoder.Dim(),
	}
	if n > 0 {
		s.MeanSearch = time.Duration(c.searchNanos.Load() / n)
	}
	return s
}
