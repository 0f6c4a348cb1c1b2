package index

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/vecmath"
)

// IVF is an inverted-file index: stored vectors are assigned to the
// nearest of nlist centroids (spherical k-means over an initial training
// sample), and a query scans only the nprobe nearest lists. Recall is
// tunable via nprobe; nprobe = nlist degrades gracefully to an exact scan.
//
// Each inverted list keeps its rows in one contiguous row-major arena
// (swap-deleted on Remove, so scans stay dense) with per-row distances to
// the list centroid. Probed lists are scanned with the blocked vecmath
// kernels under the same rigorous Cauchy–Schwarz tau bound Flat uses:
// rows that provably cannot reach tau are skipped without touching their
// data, and the rows that are scored produce exactly the scores the
// previous per-entry scan produced — pruning never changes results, only
// work.
//
// Until Train is called (or until the lazily-collected bootstrap sample
// reaches its target size), vectors accumulate in a flat buffer and
// searches are exact, so a cold cache behaves exactly like Flat.
type IVF struct {
	mu     sync.RWMutex
	dim    int
	nlist  int
	nprobe int
	seed   int64

	trainSize int
	centroids *vecmath.Matrix // nlist × dim, unit norm
	lists     []*postings     // per-centroid contiguous rows
	where     map[int]listRef
	bootstrap *Flat // pre-training accumulation
	trained   bool

	scratch sync.Pool // *ivfScratch
}

// postings is one inverted list: the shared rowArena with the list
// centroid as its pivot.
type postings = rowArena

type listRef struct {
	list, pos int
}

// ivfScratch is the pooled per-search working set: centroid scores, the
// ranked probe selection, and score/hit buffers.
type ivfScratch struct {
	scores []float32
	probes []int
	list   []float32
	hits   []Hit
}

// IVFConfig tunes the index.
type IVFConfig struct {
	// NList is the number of inverted lists (clusters). Typical: √N.
	NList int
	// NProbe is how many nearest lists a query scans. Higher = better
	// recall, slower search.
	NProbe int
	// TrainSize is the bootstrap sample size that triggers automatic
	// training (0 = 32·NList).
	TrainSize int
	// Seed drives k-means initialisation.
	Seed int64
}

// NewIVF creates an IVF index for dim-dimensional unit vectors.
func NewIVF(dim int, cfg IVFConfig) *IVF {
	if dim <= 0 {
		panic("index: dim must be positive")
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
	if cfg.TrainSize <= 0 {
		cfg.TrainSize = 32 * cfg.NList
	}
	ivf := &IVF{
		dim:       dim,
		nlist:     cfg.NList,
		nprobe:    cfg.NProbe,
		seed:      cfg.Seed,
		where:     make(map[int]listRef),
		bootstrap: NewFlat(dim),
	}
	ivf.trainSize = cfg.TrainSize
	return ivf
}

// Dim implements Index.
func (x *IVF) Dim() int { return x.dim }

// Len implements Index.
func (x *IVF) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if !x.trained {
		return x.bootstrap.Len()
	}
	return len(x.where)
}

// Tier implements TierNamer.
func (x *IVF) Tier() string { return "ivf" }

// ArenaStats implements ArenaReporter. Inverted lists are dense
// append/swap-delete arenas, so before training it defers to the
// bootstrap buffer and after training Slots == Rows with no free slots.
func (x *IVF) ArenaStats() ArenaStats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if !x.trained {
		return x.bootstrap.ArenaStats()
	}
	n := len(x.where)
	return ArenaStats{Rows: n, Slots: n}
}

// Trained reports whether centroids have been fitted.
func (x *IVF) Trained() bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.trained
}

// Add implements Index. Before training, vectors accumulate in the exact
// bootstrap buffer; once the buffer reaches the training threshold the
// index trains itself and migrates all vectors into inverted lists.
func (x *IVF) Add(id int, vec []float32) error {
	if len(vec) != x.dim {
		return fmt.Errorf("index: vector dim %d, want %d", len(vec), x.dim)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.trained {
		if err := x.bootstrap.Add(id, vec); err != nil {
			return err
		}
		if x.bootstrap.Len() >= x.trainSize {
			x.trainLocked()
		}
		return nil
	}
	if _, dup := x.where[id]; dup {
		return fmt.Errorf("index: duplicate id %d", id)
	}
	x.insert(id, vec)
	return nil
}

func (x *IVF) insert(id int, vec []float32) {
	li := x.nearestCentroid(vec)
	l := x.lists[li]
	norm := vecmath.Norm(vec)
	delta := pivotDistance(norm, vecmath.Dot(vec, x.centroids.Row(li)), vecmath.Norm(x.centroids.Row(li)))
	x.where[id] = listRef{list: li, pos: len(l.ids)}
	l.add(id, vec, norm, delta)
}

// Remove implements Index (swap-delete within the row's list). The
// vacated tail row is zeroed so the removed vector does not stay
// reachable through the list's backing array.
func (x *IVF) Remove(id int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.trained {
		x.bootstrap.Remove(id)
		return
	}
	ref, ok := x.where[id]
	if !ok {
		return
	}
	l := x.lists[ref.list]
	if movedID, moved := l.swapDelete(ref.pos, x.dim); moved {
		x.where[movedID] = listRef{list: ref.list, pos: ref.pos}
	}
	delete(x.where, id)
}

// idList implements snapshotter.
func (x *IVF) idList() []int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if !x.trained {
		return x.bootstrap.idList()
	}
	out := make([]int, 0, len(x.where))
	for id := range x.where {
		out = append(out, id)
	}
	return out
}

// vecClone implements snapshotter.
func (x *IVF) vecClone(id int) []float32 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if !x.trained {
		return x.bootstrap.vecClone(id)
	}
	ref, ok := x.where[id]
	if !ok {
		return nil
	}
	l := x.lists[ref.list]
	return vecmath.Clone(l.vecs[ref.pos*x.dim : (ref.pos+1)*x.dim])
}

// trainEntry pairs an id with its vector during (re)clustering.
type trainEntry struct {
	id  int
	vec []float32
}

// Train fits centroids on whatever vectors are currently stored and
// migrates them into inverted lists. Calling Train on an already-trained
// index re-clusters in place.
func (x *IVF) Train() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.trainLocked()
}

func (x *IVF) trainLocked() {
	// Gather all current vectors.
	var all []trainEntry
	if x.trained {
		for _, l := range x.lists {
			for i, id := range l.ids {
				all = append(all, trainEntry{id: id, vec: vecmath.Clone(l.vecs[i*x.dim : (i+1)*x.dim])})
			}
		}
	} else {
		x.bootstrap.forEach(func(id int, vec []float32) {
			all = append(all, trainEntry{id: id, vec: vecmath.Clone(vec)})
		})
	}
	if len(all) == 0 {
		return
	}
	nlist := x.nlist
	if nlist > len(all) {
		nlist = len(all)
	}
	x.centroids = sphericalKMeans(all, nlist, x.dim, x.seed)
	x.lists = make([]*postings, x.centroids.Rows)
	for i := range x.lists {
		x.lists[i] = &postings{}
	}
	x.where = make(map[int]listRef, len(all))
	x.trained = true
	x.bootstrap = nil
	for _, e := range all {
		x.insert(e.id, e.vec)
	}
}

func (x *IVF) nearestCentroid(vec []float32) int {
	best, bestScore := 0, float32(-2)
	for i := 0; i < x.centroids.Rows; i++ {
		if s := vecmath.Dot(vec, x.centroids.Row(i)); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

func (x *IVF) getScratch() *ivfScratch {
	sc, _ := x.scratch.Get().(*ivfScratch)
	if sc == nil {
		sc = &ivfScratch{}
	}
	if need := x.centroids.Rows; cap(sc.scores) < need {
		sc.scores = make([]float32, need)
		sc.probes = make([]int, need)
	}
	return sc
}

// Search implements Index: exact scan before training, nprobe-list scan
// after. Probed lists are pruned with the same rigorous tau bound Flat
// applies, so results match the unpruned scan exactly.
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
	if !x.trained {
		return x.bootstrap.SearchAppend(vec, k, tau, dst)
	}
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

	pnorm := vecmath.Norm(vec)
	thr := tau - boundMargin
	hits := sc.hits[:0]
	for _, li := range sel {
		hits = x.lists[li].scanBounded(vec, x.dim, scores[li], pnorm, tau, thr, &sc.list, hits)
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
func sphericalKMeans(data []trainEntry, k, dim int, seed int64) *vecmath.Matrix {
	rng := rand.New(rand.NewSource(seed + 31))
	cents := vecmath.NewMatrix(k, dim)
	// Seeding: first centroid random, then greedily far points.
	copy(cents.Row(0), data[rng.Intn(len(data))].vec)
	minSim := make([]float32, len(data)) // max similarity to chosen centroids
	for i := range minSim {
		minSim[i] = vecmath.Dot(data[i].vec, cents.Row(0))
	}
	for c := 1; c < k; c++ {
		// Pick the point least similar to its nearest centroid.
		worst, worstSim := 0, float32(2)
		for i, s := range minSim {
			if s < worstSim {
				worst, worstSim = i, s
			}
		}
		copy(cents.Row(c), data[worst].vec)
		for i := range minSim {
			if s := vecmath.Dot(data[i].vec, cents.Row(c)); s > minSim[i] {
				minSim[i] = s
			}
		}
	}
	assign := make([]int, len(data))
	for iter := 0; iter < 12; iter++ {
		changed := vecmath.ParallelMapReduce(len(data), func(lo, hi int) float64 {
			moved := 0.0
			for i := lo; i < hi; i++ {
				best, bestScore := 0, float32(-2)
				for c := 0; c < k; c++ {
					if s := vecmath.Dot(data[i].vec, cents.Row(c)); s > bestScore {
						best, bestScore = c, s
					}
				}
				if assign[i] != best {
					assign[i] = best
					moved++
				}
			}
			return moved
		})
		// Recompute centroids.
		cents.Fill(0)
		counts := make([]int, k)
		for i, e := range data {
			vecmath.Axpy(1, e.vec, cents.Row(assign[i]))
			counts[assign[i]]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster with a random point.
				copy(cents.Row(c), data[rng.Intn(len(data))].vec)
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
