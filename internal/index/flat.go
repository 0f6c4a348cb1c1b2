package index

import (
	"fmt"
	"sync"
)

// Flat is the exact index: one row arena, scanned whole by
// vecmath.ScanDot on every search, plus the id → row map and the lock.
// The live rows are in insertion order except where a removal moved the
// last row into the hole. ScanDot's scores are bit-identical to Dot's,
// so results — IDs, scores and tie order — equal a brute-force Dot scan,
// which is what the conformance oracle demands.
type Flat struct {
	mu sync.RWMutex
	arena
	pos map[int]int

	scratch sync.Pool // *scratch
}

// NewFlat creates an exact index for dim-dimensional vectors.
func NewFlat(dim int) *Flat {
	if dim <= 0 {
		panic("index: dim must be positive")
	}
	return &Flat{arena: arena{dim: dim}, pos: make(map[int]int)}
}

// Dim implements Index.
func (f *Flat) Dim() int { return f.dim }

// Len implements Index.
func (f *Flat) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.ids)
}

// Tier implements Index.
func (f *Flat) Tier() string { return "flat" }

// Add implements Index.
func (f *Flat) Add(id int, vec []float32) error {
	if len(vec) != f.dim {
		return fmt.Errorf("index: vector dim %d, want %d", len(vec), f.dim)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.pos[id]; dup {
		return fmt.Errorf("index: duplicate id %d", id)
	}
	f.pos[id] = len(f.ids)
	f.add(id, vec)
	return nil
}

// Remove implements Index: the last row moves into the removed row's
// place, and the vacated tail row is zeroed so the removed vector is not
// reachable through the backing array.
func (f *Flat) Remove(id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := f.pos[id]
	if !ok {
		return
	}
	if moved, ok := f.swapDelete(i); ok {
		f.pos[moved] = i
	}
	delete(f.pos, id)
}

// rows implements tierIndex, in arena order.
func (f *Flat) rows(dst []idRow) []idRow {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.arena.rows(dst)
}

// Vector implements Index.
func (f *Flat) Vector(id int, dst []float32) ([]float32, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	i, ok := f.pos[id]
	if !ok {
		return dst, false
	}
	return append(dst, f.row(i)...), true
}

// Search implements Index with the exact scan.
func (f *Flat) Search(vec []float32, k int, tau float32) []Hit {
	hits := f.SearchAppend(vec, k, tau, nil)
	if len(hits) == 0 {
		return nil
	}
	return hits
}

// SearchAppend is Search appending into dst — the allocation-free form
// the serving hot path uses: with a dst of sufficient capacity a warmed
// call performs zero heap allocations.
func (f *Flat) SearchAppend(vec []float32, k int, tau float32, dst []Hit) []Hit {
	if len(vec) != f.dim {
		panic(fmt.Sprintf("index: Search dim %d, want %d", len(vec), f.dim))
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if len(f.ids) == 0 || k <= 0 {
		return dst
	}
	sc, _ := f.scratch.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	defer f.scratch.Put(sc)
	hits := f.scan(vec, tau, sc, sc.hits[:0])
	dst = append(dst, topKHits(hits, k)...)
	sc.hits = hits[:0]
	return dst
}
