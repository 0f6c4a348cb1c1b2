package cache

import "container/heap"

// Policy selects the entry to evict when the cache is full. Figure 1 lists
// a per-entry eviction policy column with LRU as the paper's default; this
// package also provides LFU and FIFO, the classic alternatives studied in
// the web-caching literature the paper builds on.
//
// A policy is an ordering: the cache keeps its entries in a binary
// min-heap on the policy's key and evicts the least, so an eviction costs
// O(log n). Touch never moves an entry in the heap. Every key only grows
// (hits and the cache clock only count up), so a stored key is a lower
// bound on the live one: Put refreshes a stale top and sifts it down until
// the top's stored key is current, and that top is the true minimum. Keys
// are unique (each lastUsed and seq is its own tick of the cache clock),
// so the victim is exactly the one a scan of every entry would pick.
type Policy interface {
	// key returns e's eviction key under the write lock; the entry with
	// the least key is the victim. evicts is false for a policy that never
	// evicts (the cache then grows past capacity).
	key(e *Entry) (k evictKey, evicts bool)
	// Name identifies the policy.
	Name() string
}

// evictKey orders entries lexicographically on (a, b).
type evictKey struct{ a, b int64 }

func (k evictKey) less(o evictKey) bool { return k.a < o.a || k.a == o.a && k.b < o.b }

// LRU evicts the least-recently used entry (insertion or Touch).
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "lru" }

func (LRU) key(e *Entry) (evictKey, bool) { return evictKey{a: e.lastUsed}, true }

// LFU evicts the least-frequently hit entry, breaking ties by recency.
type LFU struct{}

// Name implements Policy.
func (LFU) Name() string { return "lfu" }

func (LFU) key(e *Entry) (evictKey, bool) { return evictKey{a: e.hits, b: e.lastUsed}, true }

// FIFO evicts the oldest entry by insertion order regardless of use.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

func (FIFO) key(e *Entry) (evictKey, bool) { return evictKey{a: e.seq}, true }

// None disables eviction; Put grows the cache without bound. Its key is
// constant, so the heap never reorders.
type None struct{}

// Name implements Policy.
func (None) Name() string { return "none" }

func (None) key(*Entry) (evictKey, bool) { return evictKey{}, false }

// victim returns the entry the policy evicts next, or nil when the cache
// is empty or the policy never evicts. Callers hold the write lock, which
// excludes Touch, so the keys read here are stable.
func (c *Cache) victim() *Entry {
	for len(c.entries) > 0 {
		top := c.entries[0]
		k, evicts := c.policy.key(top)
		if !evicts {
			return nil
		}
		if k == top.key {
			return top
		}
		top.key = k // stale: it only grew, so it can only sink
		heap.Fix(&c.entries, 0)
	}
	return nil
}

// entryHeap is Cache.entries as a container/heap on the stored keys;
// each entry's pos is its index.
type entryHeap []*Entry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].key.less(h[j].key) }
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

func (h *entryHeap) Push(x any) {
	e := x.(*Entry)
	e.pos = len(*h)
	*h = append(*h, e)
}

func (h *entryHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}
