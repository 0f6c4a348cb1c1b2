package index

import (
	"fmt"
	"sync"

	"repro/internal/vecmath"
)

// Flat is the exact index: one dense row-major arena of vectors, scanned
// whole by vecmath.ScanDot on every search. Rows append at the end and
// swap-delete on removal, so the live rows are always the arena's first
// len(ids) rows, in insertion order except where a removal moved the
// last row into the hole. ScanDot's scores are bit-identical to Dot's,
// so results — IDs, scores and tie order — equal a brute-force Dot scan,
// which is what the conformance oracle demands.
type Flat struct {
	mu   sync.RWMutex
	dim  int
	ids  []int
	vecs []float32 // row-major, len(ids) × dim
	pos  map[int]int

	scratch sync.Pool // *flatScratch
}

// flatScratch is the pooled per-search working set: one score per row
// and the candidate hit list. Pooling it makes a warmed SearchAppend
// allocation-free.
type flatScratch struct {
	scores []float32
	hits   []Hit
}

// flatFirstBytes sizes the arena's first allocation: the largest power
// of two of rows that fits it (16 rows at 768-d), at least one. Later
// growth doubles, so a 32-row 768-d tenant allocates 1.5× its vectors in
// all, not the ~4× that append's 1.25× steps over a large slice add up
// to.
const flatFirstBytes = 64 << 10

// NewFlat creates an exact index for dim-dimensional vectors.
func NewFlat(dim int) *Flat {
	if dim <= 0 {
		panic("index: dim must be positive")
	}
	return &Flat{dim: dim, pos: make(map[int]int)}
}

// Dim implements Index.
func (f *Flat) Dim() int { return f.dim }

// Len implements Index.
func (f *Flat) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.ids)
}

// Tier implements TierNamer.
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
	if len(f.vecs)+f.dim > cap(f.vecs) {
		f.grow()
	}
	f.pos[id] = len(f.ids)
	f.ids = append(f.ids, id)
	f.vecs = append(f.vecs, vec...)
	return nil
}

// grow doubles the arena's row capacity (see flatFirstBytes for the
// first allocation). Callers hold the write lock.
func (f *Flat) grow() {
	rows := 2 * (cap(f.vecs) / f.dim)
	if rows == 0 {
		rows = 1
		for 2*rows*4*f.dim <= flatFirstBytes {
			rows *= 2
		}
	}
	vecs := make([]float32, len(f.vecs), rows*f.dim)
	copy(vecs, f.vecs)
	f.vecs = vecs
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
	dim, last := f.dim, len(f.ids)-1
	if i != last {
		moved := f.ids[last]
		f.ids[i] = moved
		copy(f.vecs[i*dim:(i+1)*dim], f.vecs[last*dim:])
		f.pos[moved] = i
	}
	vecmath.Zero(f.vecs[last*dim:])
	f.ids = f.ids[:last]
	f.vecs = f.vecs[:last*dim]
	delete(f.pos, id)
}

// forEach calls fn on every stored vector under the read lock for the
// whole pass (IVF training reads its bootstrap buffer this way). fn must
// not retain vec: it is a view into the arena. Adaptive builds use the
// snapshotter protocol instead, so one long pass cannot park a writer
// (and, via RWMutex writer preference, every later reader) behind it.
func (f *Flat) forEach(fn func(id int, vec []float32)) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for i, id := range f.ids {
		fn(id, f.vecs[i*f.dim:(i+1)*f.dim])
	}
}

// idList implements snapshotter.
func (f *Flat) idList() []int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]int(nil), f.ids...)
}

// Vector implements Index.
func (f *Flat) Vector(id int, dst []float32) ([]float32, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	i, ok := f.pos[id]
	if !ok {
		return dst, false
	}
	return append(dst, f.vecs[i*f.dim:(i+1)*f.dim]...), true
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
	rows := len(f.ids)
	if rows == 0 || k <= 0 {
		return dst
	}
	sc, _ := f.scratch.Get().(*flatScratch)
	if sc == nil {
		sc = &flatScratch{}
	}
	defer f.scratch.Put(sc)
	if cap(sc.scores) < rows {
		sc.scores = make([]float32, rows+rows/2+8)
	}
	scores := sc.scores[:rows]
	vecmath.ScanDot(vec, f.vecs, scores)
	hits := sc.hits[:0]
	for i, s := range scores {
		if s >= tau {
			hits = append(hits, Hit{ID: f.ids[i], Score: s})
		}
	}
	dst = append(dst, topKHits(hits, k)...)
	sc.hits = hits[:0]
	return dst
}
