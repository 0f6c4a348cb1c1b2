package cache

import (
	"fmt"

	"repro/internal/vecmath"
)

// Reembed recomputes every entry's embedding with encode — the hot-rollout
// path of the online FL loop: after a new global encoder is swapped in,
// cached entries must move to the new embedding space or probes (encoded
// with the new model) would be compared against stale vectors.
//
// The cache stays fully serviceable throughout: embeddings are computed
// outside the lock and applied in short write-locked batches, so searches
// and inserts interleave with the migration. Entries inserted while a pass
// runs are picked up by a follow-up pass (they may have been encoded with
// the outgoing model during the swap window); re-encoding an entry that
// already carries the new embedding is harmless, and the pass count is
// bounded, so a write-heavy cache cannot livelock the migration.
//
// Each applied batch moves the cache's epoch, so the next AppendTo
// mirrors the whole cache instead of trusting entry records written
// with the old vectors.
//
// Reembed takes no concurrency token of its own: how many tenants migrate
// at once is the caller's bound (flserve's rollout runs a fixed number).
//
// Reembed returns the number of embeddings replaced. It errors if encode
// produces vectors of the wrong dimension (the rollout path only swaps
// same-architecture models, so dimensions are stable).
func (c *Cache) Reembed(encode func(string) []float32) (int, error) {
	type item struct {
		id    int
		query string
	}
	const (
		maxPasses  = 4   // bounds work under sustained concurrent inserts
		applyChunk = 256 // entries applied per write-lock acquisition
	)
	done := make(map[int]bool)
	total := 0
	for pass := 0; pass < maxPasses; pass++ {
		// Snapshot entries not yet migrated.
		c.mu.RLock()
		var items []item
		for _, e := range c.entries {
			if !done[e.ID] {
				items = append(items, item{e.ID, e.Query})
			}
		}
		c.mu.RUnlock()
		if len(items) == 0 {
			break
		}

		// Encode outside any lock; encoders are concurrency-safe. Worker
		// errors land in per-item slots (no shared error write).
		embs := make([][]float32, len(items))
		vecmath.ParallelFor(len(items), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if v := encode(items[i].query); len(v) == c.dim {
					embs[i] = v
				}
			}
		})
		for i := range embs {
			if embs[i] == nil {
				return total, fmt.Errorf("cache: reembed produced wrong dimension for entry %d (want %d)", items[i].id, c.dim)
			}
		}

		// Apply in bounded batches so searches interleave. Only the
		// index changes: the entry itself holds no vector, so *Entry
		// pointers held past the cache lock stay valid, and Cache.Vector
		// (read-locked) sees each entry's old vector or its new one.
		for lo := 0; lo < len(items); lo += applyChunk {
			hi := min(lo+applyChunk, len(items))
			c.mu.Lock()
			c.epoch++
			for i := lo; i < hi; i++ {
				it := items[i]
				done[it.id] = true
				if _, ok := c.byID[it.id]; !ok {
					continue // evicted while we encoded
				}
				c.idx.Remove(it.id)
				if err := c.idx.Add(it.id, embs[i]); err != nil {
					c.mu.Unlock()
					return total, fmt.Errorf("cache: reindexing entry %d: %w", it.id, err)
				}
				total++
			}
			c.mu.Unlock()
		}
	}
	return total, nil
}
