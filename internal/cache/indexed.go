package cache

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/store"
)

// NewWithIndex creates a cache whose similarity search is delegated to the
// given vector index instead of New's exact scan: the index.Adaptive
// core.New gives every tenant, which starts on the exact scan and
// promotes as the cache grows (§III-B cites million-entry semantic
// search), or one tier pinned by a test. The index must be empty and
// match dim.
func NewWithIndex(dim, capacity int, policy Policy, idx index.Index) *Cache {
	if idx.Dim() != dim {
		panic(fmt.Sprintf("cache: index dim %d != cache dim %d", idx.Dim(), dim))
	}
	if idx.Len() != 0 {
		panic("cache: index must start empty")
	}
	return newCache(dim, capacity, policy, idx)
}

// LoadFromWithIndex rebuilds a cache from records written by SaveTo, like
// LoadFrom, and attaches the given (empty) vector index, inserting every
// revived embedding into it — the serving layer's revival path. The index
// is installed before the entries load, so each revived embedding is
// indexed exactly once.
func LoadFromWithIndex(st *store.Store, dim, capacity int, policy Policy, idx index.Index) (*Cache, error) {
	if idx.Dim() != dim {
		return nil, fmt.Errorf("cache: index dim %d != cache dim %d", idx.Dim(), dim)
	}
	if idx.Len() != 0 {
		return nil, fmt.Errorf("cache: index must start empty")
	}
	c := newCache(dim, capacity, policy, idx)
	if err := loadEntries(c, st, dim); err != nil {
		return nil, err
	}
	return c, nil
}
