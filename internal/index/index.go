// Package index provides the vector-similarity indexes behind the semantic
// cache's FindSimilarQueriesinCache step (Algorithm 1).
//
// A cache does not choose among them: core.New gives every tenant an
// Adaptive, and the entry count picks the tier at a fixed threshold
// (DefaultFlatMax, 1,024 entries). The two tiers and the wrapper share
// one interface:
//
//   - Flat: exact brute-force cosine scan, one vecmath.ScanDot pass over
//     a dense row arena. Right for user-side caches (hundreds to
//     thousands of entries).
//   - IVF: an inverted-file index, trained on a sample when it is built —
//     embeddings join the list of their nearest k-means centroid; a query
//     probes only the nearest lists, pre-filtered on int8 codes. Each
//     list is the same row arena as Flat plus its code columns.
//     Approximate but sub-linear, for the million-entry regime §III-B
//     cites (SBERT's semantic search "can handle up to 1 million
//     entries").
//   - Adaptive: the tiering wrapper that starts Flat, promotes to IVF
//     past its threshold and rebuilds that IVF, sized to the tenant, each
//     time the tenant quadruples. The Add that crosses a threshold builds
//     the next tier; searches keep being served by the current one.
//
// All vectors must be unit-norm (dot product = cosine), which is the
// contract internal/embed guarantees.
package index

// Hit is one search result: the stored ID and its cosine similarity.
type Hit struct {
	ID    int
	Score float32
}

// Index is a maintained set of unit vectors searchable by cosine
// similarity. Implementations guard their state internally: Search may run
// concurrently with other Searches and with Add/Remove. Add/Remove are
// serialised by the implementation's own write lock, so external callers
// (the cache holds its own write lock around mutations) compose without
// extra coordination.
type Index interface {
	// Add stores vec under id. The id must be unique; vec must have the
	// index's dimension. The vector is copied — callers may reuse vec.
	Add(id int, vec []float32) error
	// Remove deletes id; removing an absent id is a no-op.
	Remove(id int)
	// Search returns up to k hits with score >= tau, ordered by
	// descending score with ties broken by ascending ID.
	Search(vec []float32, k int, tau float32) []Hit
	// Vector appends the vector stored under id to dst and returns the
	// extended slice; ok is false (and dst returned as is) when id is
	// absent. The index is the only place a cached vector lives, so this
	// is how persistence and the context-chain check read one.
	Vector(id int, dst []float32) (vec []float32, ok bool)
	// Len reports the number of stored vectors.
	Len() int
	// Dim reports the vector dimensionality.
	Dim() int
}

// SearchAppender is the optional allocation-free search surface: Search
// appending its hits into a caller-owned buffer. Flat and IVF implement
// it, and Adaptive hands it through to whichever of them is serving.
type SearchAppender interface {
	SearchAppend(vec []float32, k int, tau float32, dst []Hit) []Hit
}

// TierNamer is the optional serving-tier identity: implementations
// report which tier answers their searches ("flat", "ivf").
// Adaptive reports whichever tier currently serves. The observability
// layer uses this to label per-tier search latency.
type TierNamer interface {
	Tier() string
}

// hitBetter reports whether a ranks before b: descending score, ties by
// ascending ID. Every search path uses this single comparator so tie
// ordering is identical across every index implementation.
func hitBetter(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// sortHits orders by descending score, ties by ascending ID (insertion
// sort — used for small, already-truncated slices).
func sortHits(hs []Hit) {
	for i := 1; i < len(hs); i++ {
		for j := i; j > 0; j-- {
			if hitBetter(hs[j], hs[j-1]) {
				hs[j], hs[j-1] = hs[j-1], hs[j]
			} else {
				break
			}
		}
	}
}

// topKHits selects the best k of hs in hitBetter order, destructively
// reordering hs. For small inputs it falls back to the insertion sort;
// beyond that it runs bounded heap selection — a size-k min-heap whose
// root is the worst retained hit — for O(n log k) instead of the O(n·k)
// the insertion sort degrades to once candidate lists are long.
func topKHits(hs []Hit, k int) []Hit {
	if k <= 0 {
		return nil
	}
	if len(hs) <= k || len(hs) <= 32 {
		sortHits(hs)
		if len(hs) > k {
			hs = hs[:k]
		}
		return hs
	}
	// Build the min-heap (worst at the root) over the first k hits.
	heap := hs[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDownHits(heap, i)
	}
	for _, h := range hs[k:] {
		if hitBetter(h, heap[0]) {
			heap[0] = h
			siftDownHits(heap, 0)
		}
	}
	// Heap-sort the survivors into hitBetter order: repeatedly swap the
	// root (worst remaining) to the back.
	for end := k - 1; end > 0; end-- {
		heap[0], heap[end] = heap[end], heap[0]
		siftDownHits(heap[:end], 0)
	}
	return heap
}

// siftDownHits restores the min-heap property (worst hit at the root)
// below position i.
func siftDownHits(heap []Hit, i int) {
	for {
		left := 2*i + 1
		if left >= len(heap) {
			return
		}
		worst := left
		if right := left + 1; right < len(heap) && hitBetter(heap[left], heap[right]) {
			worst = right
		}
		if hitBetter(heap[worst], heap[i]) {
			return
		}
		heap[i], heap[worst] = heap[worst], heap[i]
		i = worst
	}
}
