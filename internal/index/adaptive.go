package index

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Adaptive tiers a tenant's index by size: it starts as an exact Flat
// scan (small caches stay exact and allocation-free), promotes to IVF
// once the entry count crosses FlatMax, and regrows that IVF into a
// fresh one, its lists sized to the tenant, whenever the tenant holds
// more than regrowFactor times the entries the serving IVF was built
// from. The Add that crosses a limit builds the next tier before it
// returns, under the writer lock, from the current tier's rows: the new
// IVF is trained on a sample of them before any row joins it — the first
// FlatMax rows in Flat's order on the first promotion, an even sample in
// ID order on a regrowth — and then swapped in. A tier therefore changes
// at a fill count, never at a time the scheduler picks. The build reads
// the old tier's rows in place, so what it allocates is the new IVF:
// BenchmarkAdaptivePromote768 reads 9.5 MB per crossing Add at 1,025 ×
// 768-d. Searches never take the writer lock: they resolve the serving
// tier through an atomic pointer, so a search during a build runs on
// the complete old tier.
//
// The zero-value threshold is DefaultFlatMax.
type Adaptive struct {
	dim     int
	flatMax int

	// cur is the serving tier, resolved lock-free by readers.
	cur atomic.Pointer[tierRef]

	// mu serialises writers and the builds they run.
	mu sync.Mutex
}

// DefaultFlatMax is the promotion threshold of an Adaptive whose config
// sets none, at every dimension. It is fixed, not measured, so the tier
// boundary, and the quality that hangs on it, is the same on every
// machine. The value is the one every serving encoder (768-d and 4096-d)
// got when the threshold was timed at startup: at those widths an exact
// scan of more rows was already past that timing's latency budget.
const DefaultFlatMax = 1024

// regrowFactor is how far a tenant outgrows its IVF before the tier is
// rebuilt: past regrowFactor × the entries it was built from.
const regrowFactor = 4

// tierIndex is what both tiers, Flat and IVF, implement.
type tierIndex interface {
	Index
	// rows appends every stored row to dst: Flat in arena order, IVF
	// list by list. Each vector is a view into the tier's arena, valid
	// until the tier's next write.
	rows(dst []idRow) []idRow
}

// idRow is one stored row: its ID and a view of its vector.
type idRow struct {
	id  int
	vec []float32
}

// tierRef pairs the serving index with the entry count it was built
// from, for one atomic swap.
type tierRef struct {
	idx   tierIndex
	built int // 0 while Flat serves
}

// AdaptiveConfig sets the one promotion threshold. The serving stack
// passes the zero value; tests set FlatMax to reach IVF with few
// entries.
type AdaptiveConfig struct {
	// FlatMax is the entry count past which the Flat tier promotes to
	// IVF. Zero or negative: DefaultFlatMax.
	FlatMax int
}

// NewAdaptive creates an adaptive index for dim-dimensional unit vectors.
func NewAdaptive(dim int, cfg AdaptiveConfig) *Adaptive {
	if dim <= 0 {
		panic("index: dim must be positive")
	}
	if cfg.FlatMax <= 0 {
		cfg.FlatMax = DefaultFlatMax
	}
	a := &Adaptive{dim: dim, flatMax: cfg.FlatMax}
	a.cur.Store(&tierRef{idx: NewFlat(dim)})
	return a
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// Dim implements Index.
func (a *Adaptive) Dim() int { return a.dim }

// Len implements Index.
func (a *Adaptive) Len() int { return a.cur.Load().idx.Len() }

// Tier implements Index: the currently serving tier, "flat" or "ivf".
func (a *Adaptive) Tier() string {
	if a.cur.Load().built == 0 {
		return "flat"
	}
	return "ivf"
}

// Add implements Index. The Add that takes the serving tier past its
// limit — FlatMax for Flat, regrowFactor × its build count for IVF —
// builds and swaps in the next tier before it returns.
func (a *Adaptive) Add(id int, vec []float32) error {
	if len(vec) != a.dim {
		return fmt.Errorf("index: vector dim %d, want %d", len(vec), a.dim)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ref := a.cur.Load()
	if err := ref.idx.Add(id, vec); err != nil {
		return err
	}
	limit := a.flatMax
	if ref.built > 0 {
		limit = regrowFactor * ref.built
	}
	if n := ref.idx.Len(); n > limit {
		a.cur.Store(&tierRef{idx: a.build(ref), built: n})
	}
	return nil
}

// Remove implements Index.
func (a *Adaptive) Remove(id int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cur.Load().idx.Remove(id)
}

// Search implements Index, lock-free: the serving tier is an atomic load
// and every tier is internally synchronised, so a swap concurrent with a
// long search is safe — the search finishes against the (complete) old
// tier.
func (a *Adaptive) Search(vec []float32, k int, tau float32) []Hit {
	return a.cur.Load().idx.Search(vec, k, tau)
}

// Vector implements Index through the serving tier, lock-free like
// Search.
func (a *Adaptive) Vector(id int, dst []float32) ([]float32, bool) {
	return a.cur.Load().idx.Vector(id, dst)
}

// SearchAppend implements Index through the serving tier's own, so the
// allocation-free path survives the wrapper.
func (a *Adaptive) SearchAppend(vec []float32, k int, tau float32, dst []Hit) []Hit {
	return a.cur.Load().idx.SearchAppend(vec, k, tau, dst)
}

// build returns a fresh IVF holding every row of from. The first
// promotion trains isqrt(4·FlatMax) lists on the first FlatMax rows in
// Flat's own order (insertion order, except that each removal moved the
// then-last row into its hole). A regrowth sizes the IVF to the tenant —
// isqrt(4·rows) lists, IVF's default probes — and trains it on an even
// sample in ID order (every (rows/m)-th row, where m is 32 rows per
// list, capped at the rows), never in the list order of the IVF it
// replaces. Callers hold a.mu, so from does not change meanwhile, and
// its rows are read in place: the new IVF's Add copies each one.
func (a *Adaptive) build(from *tierRef) *IVF {
	rows := from.idx.rows(make([]idRow, 0, from.idx.Len()))
	nlist := isqrt(4 * a.flatMax)
	if from.built > 0 {
		slices.SortFunc(rows, func(x, y idRow) int { return cmp.Compare(x.id, y.id) })
		nlist = isqrt(4 * len(rows))
	}
	var sample [][]float32
	if from.built == 0 {
		for _, r := range rows[:min(a.flatMax, len(rows))] {
			sample = append(sample, r.vec)
		}
	} else {
		m := min(32*nlist, len(rows))
		for i := range m {
			sample = append(sample, rows[i*len(rows)/m].vec)
		}
	}
	next := NewIVF(a.dim, IVFConfig{NList: nlist}, sample)
	for _, r := range rows {
		next.Add(r.id, r.vec)
	}
	return next
}
