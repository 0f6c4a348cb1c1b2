// Package cache implements the local semantic cache of Figure 1: entries
// holding a query, its LLM response, the query embedding, and the context
// chain (parent entry), with cosine-similarity search over the embeddings,
// a pluggable eviction policy, and optional persistence via internal/store.
//
// The cache is encoder-agnostic: it stores whatever unit-norm vectors it is
// given, so the same index serves raw 768-d embeddings and PCA-compressed
// 64-d embeddings (§III-A.4). Context semantics (matching a submitted
// conversation against a cached chain) live in internal/core; the cache
// only records and exposes chains.
package cache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/vecmath"
)

// NoParent marks a standalone entry (empty context chain).
const NoParent = -1

// Entry is one cached query/response with its embedding and chain link.
type Entry struct {
	ID        int
	Query     string
	Response  string
	Embedding []float32 // unit norm, dimension fixed per cache
	Parent    int       // entry ID of the conversational parent, or NoParent

	// eviction bookkeeping
	lastUsed int64
	hits     int64
	seq      int64 // insertion order
}

// Match is a search result: a cached entry and its cosine similarity to
// the probe embedding.
type Match struct {
	Entry *Entry
	Score float32
}

// Cache is an in-memory semantic cache, safe for concurrent use.
type Cache struct {
	mu       sync.RWMutex
	dim      int
	capacity int // 0 = unbounded
	policy   Policy

	entries []*Entry    // dense scan order
	byID    map[int]int // entry ID -> index in entries
	nextID  int
	clock   int64
	// idx owns similarity search: the exact index.Flat under New, the
	// caller's under NewWithIndex (core hands every tenant an
	// index.Adaptive, which picks its tier from the entry count).
	idx index.Index

	// hitBufs recycles the []index.Hit scratch FindSimilarAppend hands
	// to the index, so a warmed search allocates nothing but its result.
	hitBufs sync.Pool
	// multiBufs recycles the per-probe hit matrix FindSimilarMultiAppend
	// hands to the index, for the same reason.
	multiBufs sync.Pool

	// gate, when non-nil, bounds background maintenance (Reembed) so
	// migrations yield to foreground traffic under pressure.
	gate Gate

	// Lifetime counters; searches/hits are atomic because FindSimilar
	// runs under the read lock.
	puts, evictions int
	searches, hits  atomic.Int64
}

// Stats counts cache operations.
type Stats struct {
	Puts      int
	Searches  int
	Hits      int // searches that returned at least one match
	Evictions int
}

// New creates a cache for embeddings of the given dimension. capacity
// bounds the entry count (0 = unbounded); policy picks the eviction victim
// when full. Similarity search runs on the slab-backed exact index
// (index.Flat) at every size: the paper's search, and what the
// experiments and probes that measure it construct. A serving tenant's
// cache comes from NewWithIndex (see core.New).
//
// Each embedding is stored twice: Entry.Embedding is an immutable
// per-entry copy (stale *Entry holders — context-chain checks, in-flight
// match results — must keep seeing a consistent snapshot, and persistence
// and re-embedding read it), while the index keeps its own copy in the
// scan arena, where swap-deletes move rows freely. EmbeddingBytes reports
// the entry-side copy only — the quantity Figure 10a tracks.
func New(dim, capacity int, policy Policy) *Cache {
	if dim <= 0 {
		panic("cache: dim must be positive")
	}
	return newCache(dim, capacity, policy, index.NewFlat(dim))
}

func newCache(dim, capacity int, policy Policy, idx index.Index) *Cache {
	return &Cache{
		dim:      dim,
		capacity: capacity,
		policy:   policy,
		byID:     make(map[int]int),
		idx:      idx,
	}
}

// Dim reports the embedding dimensionality.
func (c *Cache) Dim() int { return c.dim }

// Capacity reports the configured entry bound (0 = unbounded).
func (c *Cache) Capacity() int { return c.capacity }

// Len reports the number of live entries.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// ServingTier reports which index tier currently answers FindSimilar
// searches ("flat" for the built-in exact scan; index.Adaptive reports
// whichever tier it has promoted to), or "" when the installed index
// does not name one. The index never changes after construction and
// TierNamer implementations synchronise internally, so no cache lock is
// taken — this is safe on the query hot path.
func (c *Cache) ServingTier() string {
	if tn, ok := c.idx.(index.TierNamer); ok {
		return tn.Tier()
	}
	return ""
}

// ArenaStats reports the backing index's storage occupancy (zero value
// when the index does not expose it).
func (c *Cache) ArenaStats() index.ArenaStats {
	if rep, ok := c.idx.(index.ArenaReporter); ok {
		return rep.ArenaStats()
	}
	return index.ArenaStats{}
}

// Stats returns a snapshot of the operation counters.
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{
		Puts:      c.puts,
		Searches:  int(c.searches.Load()),
		Hits:      int(c.hits.Load()),
		Evictions: c.evictions,
	}
}

// Put inserts a query/response with its embedding and parent link,
// returning the new entry's ID. The embedding must have the cache's
// dimension; parent must be NoParent or a live entry ID. If the cache is
// full, the eviction policy selects a victim first (cascading to the
// victim's descendants so no chain ever dangles).
func (c *Cache) Put(query, response string, emb []float32, parent int) (int, error) {
	if len(emb) != c.dim {
		return 0, fmt.Errorf("cache: embedding dim %d, want %d", len(emb), c.dim)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if parent != NoParent {
		if _, ok := c.byID[parent]; !ok {
			return 0, fmt.Errorf("cache: parent entry %d not found", parent)
		}
	}
	if c.capacity > 0 {
		// The new entry's whole ancestor chain is protected: evicting any
		// ancestor would cascade through the parent and leave the new
		// entry's chain dangling.
		protected := c.ancestorSet(parent)
		for len(c.entries) >= c.capacity {
			victim := c.policy.victim(c.entries)
			if victim == nil {
				break
			}
			if protected[victim.ID] {
				victim = c.oldestExcluding(protected)
				if victim == nil {
					break // every entry is an ancestor: grow past capacity
				}
			}
			c.removeCascade(victim.ID)
		}
	}
	id := c.nextID
	c.nextID++
	c.clock++
	e := &Entry{
		ID:        id,
		Query:     query,
		Response:  response,
		Embedding: vecmath.Clone(emb),
		Parent:    parent,
		lastUsed:  c.clock,
		seq:       c.clock,
	}
	c.byID[id] = len(c.entries)
	c.entries = append(c.entries, e)
	if c.idx != nil {
		if err := c.idx.Add(id, e.Embedding); err != nil {
			// Roll back the entry so cache and index stay consistent.
			c.entries = c.entries[:len(c.entries)-1]
			delete(c.byID, id)
			return 0, fmt.Errorf("cache: indexing entry: %w", err)
		}
	}
	c.puts++
	return id, nil
}

// ancestorSet returns id plus all its ancestors; empty for NoParent.
// Callers hold the write lock.
func (c *Cache) ancestorSet(id int) map[int]bool {
	set := make(map[int]bool)
	for id != NoParent {
		if set[id] {
			break // defensive: a cycle would otherwise loop forever
		}
		set[id] = true
		idx, ok := c.byID[id]
		if !ok {
			break
		}
		id = c.entries[idx].Parent
	}
	return set
}

func (c *Cache) oldestExcluding(protected map[int]bool) *Entry {
	var best *Entry
	for _, e := range c.entries {
		if protected[e.ID] {
			continue
		}
		if best == nil || e.seq < best.seq {
			best = e
		}
	}
	return best
}

// Get returns the entry with the given ID.
func (c *Cache) Get(id int) (*Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	idx, ok := c.byID[id]
	if !ok {
		return nil, false
	}
	return c.entries[idx], true
}

// Touch records a cache hit on id for the eviction policy. It follows
// every served hit, so it takes the lock shared, like the search before
// it, and updates its counters atomically: under the write lock each hit
// on a busy tenant waited out the searches in flight while holding back
// every search that arrived behind it. The policies read the counters
// under the write lock, which excludes Touch.
func (c *Cache) Touch(id int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if idx, ok := c.byID[id]; ok {
		e := c.entries[idx]
		atomic.StoreInt64(&e.lastUsed, atomic.AddInt64(&c.clock, 1))
		atomic.AddInt64(&e.hits, 1)
	}
}

// Remove deletes the entry and, transitively, every entry whose chain
// passes through it, so context chains never dangle.
func (c *Cache) Remove(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeCascade(id)
}

func (c *Cache) removeCascade(id int) {
	if _, ok := c.byID[id]; !ok {
		return
	}
	// Collect descendants breadth-first.
	doomed := map[int]bool{id: true}
	for changed := true; changed; {
		changed = false
		for _, e := range c.entries {
			if e.Parent != NoParent && doomed[e.Parent] && !doomed[e.ID] {
				doomed[e.ID] = true
				changed = true
			}
		}
	}
	for did := range doomed {
		idx, ok := c.byID[did]
		if !ok {
			continue
		}
		last := len(c.entries) - 1
		moved := c.entries[last]
		c.entries[idx] = moved
		c.byID[moved.ID] = idx
		c.entries = c.entries[:last]
		delete(c.byID, did)
		if c.idx != nil {
			c.idx.Remove(did)
		}
		c.evictions++
	}
}

// Chain returns the ancestors of id, oldest first, excluding id itself.
// A standalone entry yields an empty chain.
func (c *Cache) Chain(id int) []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var rev []*Entry
	cur, ok := c.byID[id]
	if !ok {
		return nil
	}
	e := c.entries[cur]
	for e.Parent != NoParent {
		idx, ok := c.byID[e.Parent]
		if !ok {
			break
		}
		e = c.entries[idx]
		rev = append(rev, e)
	}
	// Reverse to oldest-first.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// FindSimilar returns up to k entries whose cosine similarity with emb is
// at least tau, best first. This is the FindSimilarQueriesinCache step of
// Algorithm 1.
func (c *Cache) FindSimilar(emb []float32, k int, tau float32) []Match {
	return c.FindSimilarAppend(emb, k, tau, nil)
}

// FindSimilarAppend is FindSimilar appending into dst — the pooled-buffer
// form the serving hot path uses. With a dst of sufficient capacity and
// the exact index attached, a warmed call performs no heap allocation.
func (c *Cache) FindSimilarAppend(emb []float32, k int, tau float32, dst []Match) []Match {
	if len(emb) != c.dim {
		panic(fmt.Sprintf("cache: FindSimilar dim %d, want %d", len(emb), c.dim))
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.searches.Add(1)
	if len(c.entries) == 0 || k <= 0 {
		return dst
	}
	buf, _ := c.hitBufs.Get().(*[]index.Hit)
	if buf == nil {
		buf = new([]index.Hit)
	}
	var hits []index.Hit
	if sa, ok := c.idx.(index.SearchAppender); ok {
		hits = sa.SearchAppend(emb, k, tau, (*buf)[:0])
	} else {
		hits = append((*buf)[:0], c.idx.Search(emb, k, tau)...)
	}
	before := len(dst)
	for _, h := range hits {
		if pos, ok := c.byID[h.ID]; ok {
			dst = append(dst, Match{Entry: c.entries[pos], Score: h.Score})
		}
	}
	*buf = hits[:0]
	c.hitBufs.Put(buf)
	if len(dst) > before {
		c.hits.Add(1)
	}
	return dst
}

// Searcher abstracts how a lookup runs its similarity search against a
// tenant cache. The default implementation calls FindSimilarAppend
// directly; a batching implementation may coalesce concurrent searches
// against the same cache into one FindSimilarMultiAppend pass. Whatever
// the route, the matches delivered for a probe must be exactly what
// FindSimilarAppend would have returned.
type Searcher interface {
	FindSimilar(c *Cache, emb []float32, k int, tau float32, dst []Match) []Match
}

// DirectSearcher is the pass-through Searcher: every probe runs its own
// FindSimilarAppend call.
type DirectSearcher struct{}

// FindSimilar implements Searcher.
func (DirectSearcher) FindSimilar(c *Cache, emb []float32, k int, tau float32, dst []Match) []Match {
	return c.FindSimilarAppend(emb, k, tau, dst)
}

// multiScratch is the pooled working set for FindSimilarMultiAppend: one
// reusable []index.Hit per probe slot.
type multiScratch struct {
	bufs [][]index.Hit
}

// FindSimilarMultiAppend runs one similarity search per row of probes,
// appending row p's matches into dsts[p]. Results are bit-identical to m
// sequential FindSimilarAppend calls — same entries, same scores, same
// order — and the hit/search counters advance exactly as m sequential
// calls would. What batching buys is one lock acquisition and, when the
// index implements index.MultiSearcher, one shared slab pass across all
// probes instead of m independent scans.
//
// len(dsts) must be at least probes.Rows; rows beyond probes.Rows are
// left untouched.
func (c *Cache) FindSimilarMultiAppend(probes *vecmath.Matrix, k int, tau float32, dsts [][]Match) {
	if probes.Cols != c.dim {
		panic(fmt.Sprintf("cache: FindSimilarMulti dim %d, want %d", probes.Cols, c.dim))
	}
	m := probes.Rows
	if m == 0 {
		return
	}
	if len(dsts) < m {
		panic(fmt.Sprintf("cache: FindSimilarMulti dsts len %d, want >= %d", len(dsts), m))
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.searches.Add(int64(m))
	if len(c.entries) == 0 || k <= 0 {
		return
	}
	sc, _ := c.multiBufs.Get().(*multiScratch)
	if sc == nil {
		sc = &multiScratch{}
	}
	for len(sc.bufs) < m {
		sc.bufs = append(sc.bufs, nil)
	}
	bufs := sc.bufs[:m]
	for p := range bufs {
		bufs[p] = bufs[p][:0]
	}
	if ms, ok := c.idx.(index.MultiSearcher); ok {
		ms.MultiSearchAppend(probes, k, tau, bufs)
	} else if sa, ok := c.idx.(index.SearchAppender); ok {
		for p := 0; p < m; p++ {
			bufs[p] = sa.SearchAppend(probes.Row(p), k, tau, bufs[p])
		}
	} else {
		for p := 0; p < m; p++ {
			bufs[p] = append(bufs[p], c.idx.Search(probes.Row(p), k, tau)...)
		}
	}
	for p := 0; p < m; p++ {
		dst := dsts[p]
		before := len(dst)
		for _, h := range bufs[p] {
			if pos, ok := c.byID[h.ID]; ok {
				dst = append(dst, Match{Entry: c.entries[pos], Score: h.Score})
			}
		}
		if len(dst) > before {
			c.hits.Add(1)
		}
		dsts[p] = dst
	}
	c.multiBufs.Put(sc)
}

// EmbeddingBytes reports the memory consumed by stored embeddings (4 bytes
// per float32 element) — the quantity Figure 10a tracks.
func (c *Cache) EmbeddingBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total int64
	for _, e := range c.entries {
		total += int64(len(e.Embedding)) * 4
	}
	return total
}

// StorageBytes reports total cache storage: embeddings plus query and
// response text.
func (c *Cache) StorageBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total int64
	for _, e := range c.entries {
		total += int64(len(e.Embedding))*4 + int64(len(e.Query)) + int64(len(e.Response))
	}
	return total
}

// Entries returns a snapshot slice of all live entries in unspecified
// order. The entries are shared; callers must not mutate them.
func (c *Cache) Entries() []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Entry, len(c.entries))
	copy(out, c.entries)
	return out
}
