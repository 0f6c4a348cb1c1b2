// Package cache implements the local semantic cache of Figure 1: entries
// holding a query, its LLM response, and the context chain (parent
// entry), with cosine-similarity search over the query embeddings, a
// pluggable eviction policy, and optional persistence via internal/store.
// Each embedding is stored once, in the cache's vector index, which
// search, persistence and the context-chain check all read.
//
// The cache is encoder-agnostic: it stores whatever unit-norm vectors it is
// given, so the same index serves raw 768-d embeddings and PCA-compressed
// 64-d embeddings (§III-A.4). Context semantics (matching a submitted
// conversation against a cached chain) live in internal/core; the cache
// only records and exposes chains.
package cache

import (
	"container/heap"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/index"
)

// NoParent marks a standalone entry (empty context chain).
const NoParent = -1

// Entry is one cached query/response with its chain link. Its embedding
// lives in the cache's index only: read it with Cache.Vector. The
// exported fields never change once the entry is made, re-embedding
// included, so *Entry holders may keep it past the cache lock.
type Entry struct {
	ID       int
	Query    string
	Response string
	Parent   int // entry ID of the conversational parent, or NoParent

	// eviction bookkeeping
	lastUsed int64
	hits     int64
	seq      int64 // insertion order

	// Under the write lock only: the policy key this entry was last
	// placed in the eviction heap with, its index in Cache.entries, and
	// the IDs of the live entries whose Parent it is.
	key      evictKey
	pos      int
	children []int
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

	entries entryHeap      // eviction min-heap on the policy's key (eviction.go)
	byID    map[int]*Entry // entry ID -> entry
	nextID  int
	clock   int64
	// idx owns similarity search: the exact index.Flat under New, the
	// caller's under NewWithIndex (core hands every tenant an
	// index.Adaptive, which picks its tier from the entry count).
	idx index.Index

	// hitBufs recycles the []index.Hit scratch FindSimilarAppend hands
	// to the index, so a warmed search allocates nothing but its result.
	hitBufs sync.Pool

	// epoch moves, under the write lock, whenever Reembed replaces
	// vectors: an entry record written at an older epoch may hold a
	// stale embedding.
	epoch uint64
	// logMu serialises AppendTo. log is what the store log the cache
	// last loaded from or appended to held then (persist.go); nil when
	// unknown. rewrite: a sync of that log failed, so the next
	// AppendTo rewrites it into a new file.
	logMu   sync.Mutex
	log     *logMark
	rewrite bool
}

// New creates a cache for embeddings of the given dimension. capacity
// bounds the entry count (0 = unbounded); policy picks the eviction victim
// when full. Similarity search runs on the dense exact index
// (index.Flat) at every size: the paper's search, and what the
// experiments and probes that measure it construct. A serving tenant's
// cache comes from NewWithIndex (see core.New).
//
// Each embedding is stored once, in the index; the entries hold only
// text, the chain link and eviction counters.
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
		byID:     make(map[int]*Entry),
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
// whichever tier it has promoted to). The index never changes after
// construction and synchronises internally, so no cache lock is taken —
// this is safe on the query hot path.
func (c *Cache) ServingTier() string { return c.idx.Tier() }

// IndexRows reports the number of vectors the backing index holds. The
// index synchronises internally, so no cache lock is taken.
func (c *Cache) IndexRows() int { return c.idx.Len() }

// Put inserts a query/response with its embedding and parent link,
// returning the new entry's ID. The embedding must have the cache's
// dimension; parent must be NoParent or a live entry ID. If the cache is
// full, the eviction policy selects a victim first (cascading to the
// victim's descendants so no chain ever dangles): the top of the
// policy's heap, O(log n) per eviction, and the cascade walks the
// victim's child lists, so a fill never scans the cache.
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
			victim := c.victim()
			if victim == nil {
				break
			}
			if protected[victim.ID] {
				victim = c.victimExcluding(protected)
				if victim == nil {
					break // every entry is an ancestor: grow past capacity
				}
			}
			c.removeCascade(victim.ID)
		}
	}
	id := c.nextID
	c.nextID++
	if err := c.idx.Add(id, emb); err != nil { // Add copies emb
		return 0, fmt.Errorf("cache: indexing entry: %w", err)
	}
	c.link(&Entry{ID: id, Query: query, Response: response, Parent: parent})
	return id, nil
}

// link adds e, whose vector the index already holds, as the newest entry:
// stamped with the next clock tick, pushed on the eviction heap and
// appended to its parent's child list. Put and LoadFrom both insert
// through it. Callers hold the write lock.
func (c *Cache) link(e *Entry) {
	c.clock++
	e.lastUsed, e.seq = c.clock, c.clock
	e.key, _ = c.policy.key(e)
	heap.Push(&c.entries, e)
	c.byID[e.ID] = e
	if p, ok := c.byID[e.Parent]; ok { // never for NoParent, which no entry has as ID
		p.children = append(p.children, e.ID)
	}
}

// ancestorSet returns id plus all its ancestors; nil for NoParent.
// Callers hold the write lock.
func (c *Cache) ancestorSet(id int) map[int]bool {
	if id == NoParent {
		return nil
	}
	set := make(map[int]bool)
	for id != NoParent {
		if set[id] {
			break // defensive: a cycle would otherwise loop forever
		}
		set[id] = true
		e, ok := c.byID[id]
		if !ok {
			break
		}
		id = e.Parent
	}
	return set
}

// victimExcluding is victim for a Put whose heap victim is an ancestor of
// the new entry: a scan for the least live policy key outside protected,
// or nil when every entry is protected. Callers hold the write lock,
// which excludes Touch, so the keys read here are stable.
func (c *Cache) victimExcluding(protected map[int]bool) *Entry {
	var best *Entry
	var bestKey evictKey
	for _, e := range c.entries {
		if protected[e.ID] {
			continue
		}
		if k, _ := c.policy.key(e); best == nil || k.less(bestKey) {
			best, bestKey = e, k
		}
	}
	return best
}

// Vector appends the embedding of entry id to dst and returns the
// extended slice, or dst and false when the entry is gone. It reads under
// the cache's read lock, so it never sees a Reembed batch half-applied.
func (c *Cache) Vector(id int, dst []float32) ([]float32, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.Vector(id, dst)
}

// Get returns the entry with the given ID.
func (c *Cache) Get(id int) (*Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.byID[id]
	return e, ok
}

// Touch records a cache hit on id for the eviction policy. It follows
// every served hit, so it takes the lock shared, like the search before
// it, and updates its counters atomically: under the write lock each hit
// on a busy tenant waited out the searches in flight while holding back
// every search that arrived behind it. The policies read the counters
// under the write lock, which excludes Touch; the entry stays where it is
// in the eviction heap until Put finds its key stale.
func (c *Cache) Touch(id int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.byID[id]; ok {
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

// removeCascade removes id and its descendants, breadth-first through
// the child lists, so the order of removals is deterministic.
func (c *Cache) removeCascade(id int) {
	root, ok := c.byID[id]
	if !ok {
		return
	}
	if p, ok := c.byID[root.Parent]; ok {
		// Only the root leaves a live parent behind: every other doomed
		// entry's parent is doomed too.
		i := slices.Index(p.children, id)
		p.children = slices.Delete(p.children, i, i+1)
	}
	for queue := []*Entry{root}; len(queue) > 0; queue = queue[1:] {
		e := queue[0]
		for _, cid := range e.children {
			queue = append(queue, c.byID[cid])
		}
		heap.Remove(&c.entries, e.pos)
		delete(c.byID, e.ID)
		c.idx.Remove(e.ID)
	}
}

// Chain returns the ancestors of id, oldest first, excluding id itself.
// A standalone entry yields an empty chain.
func (c *Cache) Chain(id int) []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var rev []*Entry
	e, ok := c.byID[id]
	if !ok {
		return nil
	}
	for e.Parent != NoParent {
		if e, ok = c.byID[e.Parent]; !ok {
			break
		}
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
	if len(c.entries) == 0 || k <= 0 {
		return dst
	}
	buf, _ := c.hitBufs.Get().(*[]index.Hit)
	if buf == nil {
		buf = new([]index.Hit)
	}
	hits := c.idx.SearchAppend(emb, k, tau, (*buf)[:0])
	for _, h := range hits {
		if e, ok := c.byID[h.ID]; ok {
			dst = append(dst, Match{Entry: e, Score: h.Score})
		}
	}
	*buf = hits[:0]
	c.hitBufs.Put(buf)
	return dst
}

// Searcher is the seam a lookup's similarity search runs through. The
// default, DirectSearcher, calls FindSimilarAppend; a substitute (a
// timing decorator, for one) must deliver exactly the matches
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

// EmbeddingBytes reports the memory consumed by stored embeddings (4 bytes
// per float32 element) — the quantity Figure 10a tracks. The index holds
// the only copy of each, so this is entries × dim × 4.
func (c *Cache) EmbeddingBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int64(len(c.entries)) * int64(c.dim) * 4
}

// StorageBytes reports total cache storage: embeddings plus query and
// response text.
func (c *Cache) StorageBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := int64(len(c.entries)) * int64(c.dim) * 4
	for _, e := range c.entries {
		total += int64(len(e.Query)) + int64(len(e.Response))
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
