package server

import (
	"math"
	"sync"

	"repro/internal/cache"
	"repro/internal/vecmath"
)

// SearchBatcher coalesces concurrent similarity searches against the SAME
// tenant cache into single multi-probe index passes — the per-tenant
// counterpart of the cross-tenant encode Batcher. When a hot tenant takes
// a burst of queries, the requests that arrive while every processor
// could already be searching that cache share a single
// cache.FindSimilarMultiAppend call: one lock acquisition and one slab
// scan sweep (on tiers implementing index.MultiSearcher) instead of N
// independent ones. Results are bit-identical to the direct path — same
// matches, same scores, same order.
//
// SearchBatcher implements cache.Searcher, so it plugs into
// core.Options.Searcher. A search runs the direct FindSimilarAppend on
// its caller's goroutine at once unless as many searches of its cache
// (at its k and tau: only those could share a pass) as there are
// processors are already in flight; searches that arrive then park, and
// the first of them leads the multi-probe pass for the rest when one in
// flight finishes (see combiner). Caches never wait on one another, so a
// slow pass for one hot tenant cannot stall unrelated tenants' searches,
// and a cache costs the batcher a map entry only while a search of it is
// in flight.
//
// It is safe for unrestricted concurrent use and owns no goroutine. Close
// waits out the passes in flight; searches during and after Close run
// directly.
type SearchBatcher struct {
	comb    combiner[searchKey, searchReq, []cache.Match]
	scratch sync.Pool // *searchScratch
}

// searchKey is what one multi-probe pass can serve. tau is keyed by its
// bits so that a NaN threshold still finds, and clears, its own entry.
type searchKey struct {
	c   *cache.Cache
	k   int
	tau uint32
}

type searchReq struct {
	c   *cache.Cache
	emb []float32
	k   int
	tau float32
	dst []cache.Match // caller's buffer; matches are appended to it
}

// searchScratch is what a leader needs to execute one coalesced pass: the
// packed probe matrix and the per-probe destination table. Pooled, since
// concurrent leaders (of different caches) each need one.
type searchScratch struct {
	probeData []float32
	probes    vecmath.Matrix
	dsts      [][]cache.Match
}

// NewSearchBatcher builds a search batcher. MaxBatch defaults to 32.
func NewSearchBatcher(cfg BatcherConfig) *SearchBatcher {
	s := &SearchBatcher{}
	s.comb.init(cfg.MaxBatch, searchOne, s.searchBatch)
	return s
}

// FindSimilar implements cache.Searcher: the probe runs directly or, when
// c is already being searched on every processor, joins the next
// multi-probe pass. emb must stay valid until the call returns; matches
// are appended to dst exactly as FindSimilarAppend would.
func (s *SearchBatcher) FindSimilar(c *cache.Cache, emb []float32, k int, tau float32, dst []cache.Match) []cache.Match {
	return s.comb.do(searchKey{c: c, k: k, tau: math.Float32bits(tau)},
		searchReq{c: c, emb: emb, k: k, tau: tau, dst: dst})
}

// Close returns once every pass in flight, and every search parked behind
// one, has been served.
func (s *SearchBatcher) Close() { s.comb.close() }

// Stats reports coalescing counters. Batches counts index passes: a
// coalesced pass is one, and so is each direct search.
func (s *SearchBatcher) Stats() BatcherStats { return s.comb.stats() }

// QueueDepth reports searches currently parked behind a pass in flight.
func (s *SearchBatcher) QueueDepth() int { return s.comb.queueDepth() }

// OnBatch installs fn to observe each pass's size on its leader's
// goroutine (the metrics hook). Semantics match Batcher.OnBatch.
func (s *SearchBatcher) OnBatch(fn func(size int)) { s.comb.setOnBatch(fn) }

func searchOne(r searchReq) []cache.Match {
	return r.c.FindSimilarAppend(r.emb, r.k, r.tau, r.dst)
}

// searchBatch executes one coalesced pass on its leader's goroutine: pack
// the probes, run the single multi-probe pass, give each member its
// matches.
func (s *SearchBatcher) searchBatch(batch []*parked[searchReq, []cache.Match]) {
	g, _ := s.scratch.Get().(*searchScratch)
	if g == nil {
		g = &searchScratch{}
	}
	head := batch[0].req
	m, dim := len(batch), head.c.Dim()
	if need := m * dim; cap(g.probeData) < need {
		g.probeData = make([]float32, 0, need+need/2)
	}
	data := g.probeData[:m*dim]
	for len(g.dsts) < m {
		g.dsts = append(g.dsts, nil)
	}
	dsts := g.dsts[:m]
	for i, p := range batch {
		copy(data[i*dim:(i+1)*dim], p.req.emb)
		dsts[i] = p.req.dst
	}
	g.probes = vecmath.Matrix{Rows: m, Cols: dim, Data: data}
	head.c.FindSimilarMultiAppend(&g.probes, head.k, head.tau, dsts)
	for i, p := range batch {
		p.out = dsts[i]
	}
	clear(dsts) // don't pin the callers' buffers
	s.scratch.Put(g)
}
