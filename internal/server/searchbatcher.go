package server

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/vecmath"
)

// SearchBatcher coalesces concurrent similarity searches against the SAME
// tenant cache into single multi-probe index passes — the per-tenant
// counterpart of the cross-tenant encode Batcher. When a hot tenant takes
// a burst of queries, the requests that queue up behind one another share
// a single cache.FindSimilarMultiAppend call: one lock acquisition and
// one slab scan sweep (on tiers implementing index.MultiSearcher) instead
// of N independent ones. Results are bit-identical to the direct
// path — same matches, same scores, same order.
//
// SearchBatcher implements cache.Searcher, so it plugs into
// core.Options.Searcher. Requests for different caches (or different
// k/tau) that land in the same batch are split into per-cache groups.
// The dispatcher goroutine only partitions: a request alone in its group
// is handed back to its caller unexecuted (the caller runs the direct
// FindSimilarAppend itself), and a coalesced group is handed to its
// first member — the leader — which runs the multi-probe pass on its own
// goroutine and fans the results out to the other members. Search work
// therefore never runs on the dispatcher, so a slow pass for one hot
// tenant cannot stall unrelated tenants' searches behind it.
//
// The dispatcher never lingers (see batchCore), so batching adds no
// latency and coalescing happens exactly when requests genuinely overlap.
//
// It is safe for unrestricted concurrent use. Close stops the dispatcher;
// searches during and after Close run directly.
type SearchBatcher struct {
	core    *batchCore[searchReq]
	replies replyPool[searchResp]
	groups  sync.Pool // *searchGroup
}

type searchReq struct {
	c     *cache.Cache
	emb   []float32
	k     int
	tau   float32
	dst   []cache.Match // caller's buffer; matches are appended to it
	reply chan searchResp
}

type searchResp struct {
	matches []cache.Match
	// direct tells the caller its request was not coalesced and it should
	// run the search itself (matches is meaningless).
	direct bool
	// group makes the caller the group's leader: it must run the coalesced
	// pass via lead. The dispatcher's gather buffer is reused, so the
	// group carries its own copy of the requests.
	group *searchGroup
}

// searchGroup is one coalesced group in flight plus the leader-owned
// scratch for executing it: the packed probe matrix and the per-probe
// destination table. Pooled, since concurrent leaders each need one.
type searchGroup struct {
	reqs      []searchReq
	probeData []float32
	probes    vecmath.Matrix
	dsts      [][]cache.Match
}

// NewSearchBatcher starts a search batcher. MaxBatch defaults to 32.
func NewSearchBatcher(cfg BatcherConfig) *SearchBatcher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	s := &SearchBatcher{
		replies: make(replyPool[searchResp], cfg.MaxBatch*4),
	}
	s.core = newBatchCore(cfg.MaxBatch, s.run)
	return s
}

// FindSimilar implements cache.Searcher: the probe either joins a
// coalesced multi-probe pass or (when alone in its batch, or when the
// batcher is closed) runs directly. emb must stay valid until the call
// returns; matches are appended to dst exactly as FindSimilarAppend
// would.
func (s *SearchBatcher) FindSimilar(c *cache.Cache, emb []float32, k int, tau float32, dst []cache.Match) []cache.Match {
	req := searchReq{c: c, emb: emb, k: k, tau: tau, dst: dst, reply: s.replies.get()}
	if !s.core.submit(req) {
		s.replies.put(req.reply)
		return c.FindSimilarAppend(emb, k, tau, dst)
	}
	resp := <-req.reply
	s.replies.put(req.reply)
	switch {
	case resp.group != nil:
		return s.lead(resp.group)
	case resp.direct:
		return c.FindSimilarAppend(emb, k, tau, dst)
	default:
		return resp.matches
	}
}

func (s *SearchBatcher) getGroup() *searchGroup {
	if g, ok := s.groups.Get().(*searchGroup); ok {
		return g
	}
	return &searchGroup{}
}

// Close stops the dispatcher after draining in-flight requests.
func (s *SearchBatcher) Close() { s.core.close() }

// Stats reports coalescing counters. Batches counts index passes: each
// coalesced group is one pass, and each handed-back singleton counts as
// the one direct pass its caller runs.
func (s *SearchBatcher) Stats() BatcherStats { return s.core.stats() }

// QueueDepth reports searches currently waiting for the dispatcher.
func (s *SearchBatcher) QueueDepth() int { return s.core.queueDepth() }

// OnBatch installs fn to observe each group's size on the dispatcher
// goroutine (the metrics hook). Semantics match Batcher.OnBatch.
func (s *SearchBatcher) OnBatch(fn func(size int)) { s.core.setOnBatch(fn) }

// run splits one gathered batch into per-(cache, k, tau) groups and
// hands each off. Group peeling partitions in place: requests matching
// the head are swapped to the front, dispatched, and the tail re-peeled.
func (s *SearchBatcher) run(batch []searchReq) {
	for len(batch) > 0 {
		head := batch[0]
		n := 1
		for i := 1; i < len(batch); i++ {
			if r := batch[i]; r.c == head.c && r.k == head.k && r.tau == head.tau {
				batch[n], batch[i] = batch[i], batch[n]
				n++
			}
		}
		s.dispatchGroup(batch[:n])
		batch = batch[n:]
	}
}

// dispatchGroup accounts for one group and hands the work away: back to
// the caller for singletons, to the first member (the leader) for
// coalesced groups. No search runs on the dispatcher goroutine.
func (s *SearchBatcher) dispatchGroup(group []searchReq) {
	s.core.batches.Add(1)
	s.core.fireOnBatch(len(group))
	if len(group) == 1 {
		group[0].reply <- searchResp{direct: true}
		return
	}
	s.core.batched.Add(int64(len(group)))
	g := s.getGroup()
	g.reqs = append(g.reqs[:0], group...)
	group[0].reply <- searchResp{group: g}
}

// lead executes one coalesced group on the leader's goroutine: pack the
// probes, run the single multi-probe pass, fan results out to the other
// members, and return the leader's own matches.
func (s *SearchBatcher) lead(g *searchGroup) []cache.Match {
	reqs := g.reqs
	m, dim := len(reqs), reqs[0].c.Dim()
	if need := m * dim; cap(g.probeData) < need {
		g.probeData = make([]float32, 0, need+need/2)
	}
	data := g.probeData[:m*dim]
	for i, r := range reqs {
		copy(data[i*dim:(i+1)*dim], r.emb)
	}
	g.probes = vecmath.Matrix{Rows: m, Cols: dim, Data: data}
	for len(g.dsts) < m {
		g.dsts = append(g.dsts, nil)
	}
	dsts := g.dsts[:m]
	for i, r := range reqs {
		dsts[i] = r.dst
	}
	reqs[0].c.FindSimilarMultiAppend(&g.probes, reqs[0].k, reqs[0].tau, dsts)
	mine := dsts[0]
	for i := 1; i < m; i++ {
		reqs[i].reply <- searchResp{matches: dsts[i]}
	}
	clear(dsts)   // don't pin the callers' buffers
	clear(g.reqs) // nor their embeddings and caches
	s.groups.Put(g)
	return mine
}
