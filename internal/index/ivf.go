package index

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/vecmath"
)

// IVF is an inverted-file index: NewIVF fits nlist centroids to a
// training sample (spherical k-means), every stored vector joins the
// list of its nearest centroid, and a query scans only the nprobe
// nearest lists. Recall is tunable via nprobe; nprobe = nlist is an
// exact scan. An IVF is trained from the moment it exists: Adaptive
// builds one from the rows of the tier it replaces.
//
// Each inverted list is a row arena (swap-deleted on Remove, so scans
// stay dense) beside an int8 code of every row (vecmath.Quantize). A
// probed list is first scored on the codes with the integer kernel
// vecmath.ScanQ8, which reads a quarter of the bytes; each code score
// yields a rigorous upper bound on the row's exact score (see q8Probe),
// and only rows whose bound reaches tau are scored with Dot. Returned IDs
// and score bits therefore equal a dense vecmath.ScanDot over the same
// lists — the pre-filter never changes results, only work. Lists where
// it cannot pay (tau so low no row could be pruned, or more than half
// the rows survive) are scored densely.
type IVF struct {
	mu     sync.RWMutex
	dim    int
	nprobe int

	centroids *vecmath.Matrix // nlist × dim, unit norm
	lists     []*ivfList      // per-centroid contiguous rows
	where     map[int]listRef

	scratch sync.Pool // *scratch
}

type listRef struct {
	list, pos int
}

// IVFConfig tunes the index.
type IVFConfig struct {
	// NList is the number of inverted lists (clusters), capped at the
	// training sample's size. Typical: √N.
	NList int
	// NProbe is how many nearest lists a query scans. Higher = better
	// recall, slower search.
	NProbe int
	// Seed drives k-means initialisation.
	Seed int64
}

// NewIVF creates an IVF index for dim-dimensional unit vectors, its
// centroids fitted to sample, which must be non-empty. The index starts
// empty: sample only trains it, and is not retained.
func NewIVF(dim int, cfg IVFConfig, sample [][]float32) *IVF {
	if dim <= 0 {
		panic("index: dim must be positive")
	}
	if len(sample) == 0 {
		panic("index: NewIVF needs a non-empty training sample")
	}
	for _, v := range sample {
		if len(v) != dim {
			panic(fmt.Sprintf("index: training vector dim %d, want %d", len(v), dim))
		}
	}
	if cfg.NList <= 0 {
		cfg.NList = 64
	}
	if cfg.NProbe <= 0 {
		cfg.NProbe = 8
	}
	if cfg.NProbe > cfg.NList {
		cfg.NProbe = cfg.NList
	}
	x := &IVF{
		dim:       dim,
		nprobe:    cfg.NProbe,
		centroids: sphericalKMeans(sample, min(cfg.NList, len(sample)), dim, cfg.Seed),
		where:     make(map[int]listRef),
	}
	x.lists = make([]*ivfList, x.centroids.Rows)
	for i := range x.lists {
		x.lists[i] = &ivfList{arena: arena{dim: dim}}
	}
	return x
}

// Dim implements Index.
func (x *IVF) Dim() int { return x.dim }

// Len implements Index.
func (x *IVF) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.where)
}

// Tier implements TierNamer.
func (x *IVF) Tier() string { return "ivf" }

// Add implements Index: the row joins its nearest centroid's list.
func (x *IVF) Add(id int, vec []float32) error {
	if len(vec) != x.dim {
		return fmt.Errorf("index: vector dim %d, want %d", len(vec), x.dim)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, dup := x.where[id]; dup {
		return fmt.Errorf("index: duplicate id %d", id)
	}
	li := x.nearestCentroid(vec)
	l := x.lists[li]
	x.where[id] = listRef{list: li, pos: len(l.ids)}
	l.add(id, vec)
	return nil
}

// Remove implements Index (swap-delete within the row's list). The
// vacated tail row is zeroed so the removed vector does not stay
// reachable through the list's backing array.
func (x *IVF) Remove(id int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	ref, ok := x.where[id]
	if !ok {
		return
	}
	if movedID, moved := x.lists[ref.list].swapDelete(ref.pos); moved {
		x.where[movedID] = ref
	}
	delete(x.where, id)
}

// idList implements tierIndex.
func (x *IVF) idList() []int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make([]int, 0, len(x.where))
	for id := range x.where {
		out = append(out, id)
	}
	return out
}

// Vector implements Index.
func (x *IVF) Vector(id int, dst []float32) ([]float32, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	ref, ok := x.where[id]
	if !ok {
		return dst, false
	}
	return append(dst, x.lists[ref.list].row(ref.pos)...), true
}

// nearestCentroid scores every centroid with one ScanDot pass, as
// SearchAppend does, and returns the first best. ScanDot's scores are
// Dot's bit for bit, so a row joins the list a per-centroid Dot loop
// would pick.
func (x *IVF) nearestCentroid(vec []float32) int {
	sc := x.getScratch()
	defer x.scratch.Put(sc)
	scores := sc.scores[:x.centroids.Rows]
	vecmath.ScanDot(vec, x.centroids.Data, scores)
	return firstMax(scores)
}

// firstMax returns the index of the first greatest score above -2 (the
// floor of any cosine), or 0.
func firstMax(scores []float32) int {
	best, bestScore := 0, float32(-2)
	for i, s := range scores {
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

func (x *IVF) getScratch() *scratch {
	sc, _ := x.scratch.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	if need := x.centroids.Rows; cap(sc.scores) < need {
		sc.scores = make([]float32, need)
		sc.probes = make([]int, need)
	}
	if cap(sc.code) < x.dim {
		sc.code = make([]int16, x.dim)
	}
	return sc
}

// Search implements Index with the nprobe-list scan. Probed lists are
// pre-filtered on their int8 codes under a rigorous bound, so results —
// IDs and score bits — match a dense scan of the same lists exactly.
func (x *IVF) Search(vec []float32, k int, tau float32) []Hit {
	hits := x.SearchAppend(vec, k, tau, nil)
	if len(hits) == 0 {
		return nil
	}
	return hits
}

// SearchAppend is Search appending into dst — the allocation-free form:
// with a dst of sufficient capacity a warmed call performs zero heap
// allocations.
func (x *IVF) SearchAppend(vec []float32, k int, tau float32, dst []Hit) []Hit {
	if len(vec) != x.dim {
		panic(fmt.Sprintf("index: Search dim %d, want %d", len(vec), x.dim))
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	if k <= 0 || len(x.where) == 0 {
		return dst
	}
	sc := x.getScratch()
	defer x.scratch.Put(sc)

	// Score every centroid with one blocked pass, then select the nprobe
	// best.
	scores := sc.scores[:x.centroids.Rows]
	vecmath.ScanDot(vec, x.centroids.Data, scores)
	sel := x.selectProbes(scores, sc.probes[:0])

	q := newQ8Probe(vec, sc.code[:x.dim])
	hits := sc.hits[:0]
	for _, li := range sel {
		hits = x.lists[li].scan(vec, &q, tau, sc, hits)
	}
	top := topKHits(hits, k)
	dst = append(dst, top...)
	sc.hits = hits[:0]
	return dst
}

// selectProbes ranks the nprobe best centroid scores into sel (ties to
// the lower list index, matching the historical full insertion sort, so
// probe sets — and therefore recall — are stable).
func (x *IVF) selectProbes(scores []float32, sel []int) []int {
	probes := x.nprobe
	if probes > len(scores) {
		probes = len(scores)
	}
	for li := range scores {
		i := len(sel)
		if i < probes {
			sel = append(sel, li)
		} else if scores[li] > scores[sel[probes-1]] {
			i = probes - 1
			sel[i] = li
		} else {
			continue
		}
		for ; i > 0 && scores[sel[i]] > scores[sel[i-1]]; i-- {
			sel[i], sel[i-1] = sel[i-1], sel[i]
		}
	}
	return sel
}

// sphericalKMeans clusters unit vectors by cosine with k-means++ style
// seeding, re-normalising centroids each iteration.
func sphericalKMeans(data [][]float32, k, dim int, seed int64) *vecmath.Matrix {
	rng := rand.New(rand.NewSource(seed + 31))
	cents := vecmath.NewMatrix(k, dim)
	// Seeding: first centroid random, then greedily far points.
	copy(cents.Row(0), data[rng.Intn(len(data))])
	minSim := make([]float32, len(data)) // max similarity to chosen centroids
	for i := range minSim {
		minSim[i] = vecmath.Dot(data[i], cents.Row(0))
	}
	for c := 1; c < k; c++ {
		// Pick the point least similar to its nearest centroid.
		worst, worstSim := 0, float32(2)
		for i, s := range minSim {
			if s < worstSim {
				worst, worstSim = i, s
			}
		}
		copy(cents.Row(c), data[worst])
		for i := range minSim {
			if s := vecmath.Dot(data[i], cents.Row(c)); s > minSim[i] {
				minSim[i] = s
			}
		}
	}
	assign := make([]int, len(data))
	for iter := 0; iter < 12; iter++ {
		changed := vecmath.ParallelMapReduce(len(data), func(lo, hi int) float64 {
			moved := 0.0
			scores := make([]float32, k)
			for i := lo; i < hi; i++ {
				vecmath.ScanDot(data[i], cents.Data, scores)
				if best := firstMax(scores); assign[i] != best {
					assign[i] = best
					moved++
				}
			}
			return moved
		})
		// Recompute centroids.
		cents.Fill(0)
		counts := make([]int, k)
		for i, v := range data {
			vecmath.Axpy(1, v, cents.Row(assign[i]))
			counts[assign[i]]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster with a random point.
				copy(cents.Row(c), data[rng.Intn(len(data))])
				continue
			}
			if vecmath.Normalize(cents.Row(c)) == 0 {
				cents.Row(c)[0] = 1
			}
		}
		if changed == 0 {
			break
		}
	}
	return cents
}
