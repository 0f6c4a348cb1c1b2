package index

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/vecmath"
)

// Flat is the exact index, rebuilt around slab storage and bound-based
// pruning. Vectors live in leader-partitioned groups: each group keeps
// its rows in one contiguous row-major arena (scanned with the blocked
// vecmath kernels), its pivot ("leader") vector in a shared
// vecmath.Slab with free-slot recycling, and per-row distances to the
// pivot. A search scores every leader with one blocked pass and then
// applies the Cauchy–Schwarz bound
//
//	dot(q, row) ≤ dot(q, leader) + ‖q‖·‖row − leader‖
//
// first per group (against the group's max distance), then per row, so
// rows that provably cannot reach tau are skipped without touching
// their data. The bound is mathematically rigorous and applied with a
// safety margin wider than any float32 rounding, so results — IDs and
// scores — are identical to a brute-force Dot scan: Flat stays the
// exact implementation the conformance oracle demands, it just refuses
// to do work the threshold already excludes. With tau at serving levels
// (≈0.8) on clustered embeddings this skips almost every row; with a
// permissive tau it degrades to a full blocked-kernel scan.
type Flat struct {
	mu  sync.RWMutex
	dim int
	n   int

	leaders *vecmath.Slab // pivot per group, slot-addressed, recycled
	groups  []*flatGroup
	pos     map[int]flatRef

	scratch sync.Pool // *flatScratch
}

// flatGroup is one leader-partitioned row set: a shared rowArena plus
// the slot of its pivot in the leaders slab.
type flatGroup struct {
	leader int32 // slot in the leaders slab
	rowArena
}

// flatRef locates a row: its group and position within it.
type flatRef struct {
	g   *flatGroup
	pos int32
}

// flatScratch is the pooled per-search working set: leader scores, one
// group-scan score buffer, and the candidate hit list. Pooling it makes
// a warmed Search allocate only its result slice. multi and chunk are
// the batched-search extensions (the m×slots score matrix and the
// per-chunk kernel output), sized lazily so single-probe searches never
// pay for them.
type flatScratch struct {
	scores []float32
	group  []float32
	hits   []Hit
	multi  []float32
	chunk  []float32
}

const (
	// flatJoinTau is the minimum cosine for a new row to join an
	// existing group instead of founding its own. sqrt(2−2·0.7) ≈ 0.77
	// bounds the pivot distance of joined rows, which is what makes the
	// group bound bite at serving thresholds.
	flatJoinTau = 0.70
	// boundMargin widens every pruning comparison so float32 rounding in
	// the bound can never exclude a row a Dot-based oracle would admit.
	// Accumulated rounding across a dot product and a square root is
	// below 1e-5 for unit-scale data; 1e-3 leaves three orders of slack.
	boundMargin = 1e-3
	// deltaSlack is added to each computed pivot distance for the same
	// reason, on the insert side.
	deltaSlack = 1e-4
)

// flatMaxGroups caps the number of groups at 16 + 2·√n. Beyond the cap
// new rows join their nearest leader regardless of flatJoinTau (the
// bound weakens but stays rigorous), so uncorrelated data cannot drive
// Add cost past O(√n) leader comparisons.
func flatMaxGroups(n int) int {
	return 16 + 2*int(math.Sqrt(float64(n)))
}

// NewFlat creates an exact index for dim-dimensional vectors.
func NewFlat(dim int) *Flat {
	if dim <= 0 {
		panic("index: dim must be positive")
	}
	return &Flat{
		dim:     dim,
		leaders: vecmath.NewSlab(dim),
		pos:     make(map[int]flatRef),
	}
}

// Dim implements Index.
func (f *Flat) Dim() int { return f.dim }

// Len implements Index.
func (f *Flat) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.n
}

// Tier implements TierNamer.
func (f *Flat) Tier() string { return "flat" }

// ArenaStats implements ArenaReporter against the leaders slab — the
// free-list-recycled storage whose occupancy bounds the group count (the
// per-group row arenas are dense by construction).
func (f *Flat) ArenaStats() ArenaStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return ArenaStats{
		Rows:      f.n,
		Slots:     f.leaders.Slots(),
		FreeSlots: f.leaders.Slots() - f.leaders.Len(),
	}
}

func (f *Flat) getScratch() *flatScratch {
	sc, _ := f.scratch.Get().(*flatScratch)
	if sc == nil {
		sc = &flatScratch{}
	}
	if need := f.leaders.Slots(); cap(sc.scores) < need {
		sc.scores = make([]float32, need+need/2+8)
	}
	return sc
}

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

	g, leaderDot := f.placeGroup(vec)
	if g == nil {
		slot := f.leaders.Put(vec)
		g = &flatGroup{leader: slot}
		f.groups = append(f.groups, g)
		leaderDot = vecmath.Dot(vec, f.leaders.Row(slot))
	}
	norm := vecmath.Norm(vec)
	delta := pivotDistance(norm, leaderDot, f.leaders.Norm(g.leader))
	f.pos[id] = flatRef{g: g, pos: int32(len(g.ids))}
	g.add(id, vec, norm, delta)
	f.n++
	return nil
}

// placeGroup picks the best existing group for vec (nil when vec should
// found a new one), returning the winning leader's dot with vec. Callers
// hold the write lock.
func (f *Flat) placeGroup(vec []float32) (*flatGroup, float32) {
	if len(f.groups) == 0 {
		return nil, 0
	}
	sc := f.getScratch()
	defer f.scratch.Put(sc)
	scores := sc.scores[:f.leaders.Slots()]
	f.leaders.ScanDot(vec, scores)
	best, bestDot := -1, float32(math.Inf(-1))
	for i, g := range f.groups {
		if d := scores[g.leader]; d > bestDot {
			best, bestDot = i, d
		}
	}
	if bestDot < flatJoinTau && len(f.groups) < flatMaxGroups(f.n) {
		return nil, 0
	}
	return f.groups[best], bestDot
}

// pivotDistance computes ‖row − leader‖ from precomputed norms and the
// row·leader dot, in float64 with an upward slack so the stored value
// can only over-estimate the true distance (pruning stays rigorous).
func pivotDistance(rowNorm, dot, leaderNorm float32) float32 {
	d2 := float64(rowNorm)*float64(rowNorm) - 2*float64(dot) + float64(leaderNorm)*float64(leaderNorm)
	if d2 < 0 {
		d2 = 0
	}
	return float32(math.Sqrt(d2)) + deltaSlack
}

// Remove implements Index (swap-delete within the row's group; an
// emptied group returns its leader slot to the slab's free list).
func (f *Flat) Remove(id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ref, ok := f.pos[id]
	if !ok {
		return
	}
	g, i := ref.g, int(ref.pos)
	if movedID, moved := g.swapDelete(i, f.dim); moved {
		f.pos[movedID] = flatRef{g: g, pos: int32(i)}
	}
	delete(f.pos, id)
	f.n--
	if len(g.ids) == 0 {
		f.dropGroup(g)
	}
}

func (f *Flat) dropGroup(g *flatGroup) {
	f.leaders.Free(g.leader)
	for i, og := range f.groups {
		if og == g {
			f.groups[i] = f.groups[len(f.groups)-1]
			f.groups = f.groups[:len(f.groups)-1]
			return
		}
	}
}

// forEach implements iterable.
func (f *Flat) forEach(fn func(id int, vec []float32)) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, g := range f.groups {
		for i, id := range g.ids {
			fn(id, g.vecs[i*f.dim:(i+1)*f.dim])
		}
	}
}

// idList implements snapshotter.
func (f *Flat) idList() []int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]int, 0, f.n)
	for _, g := range f.groups {
		out = append(out, g.ids...)
	}
	return out
}

// vecClone implements snapshotter.
func (f *Flat) vecClone(id int) []float32 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ref, ok := f.pos[id]
	if !ok {
		return nil
	}
	i := int(ref.pos)
	return vecmath.Clone(ref.g.vecs[i*f.dim : (i+1)*f.dim])
}

// Search implements Index with the bound-pruned exact scan.
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
	if f.n == 0 || k <= 0 {
		return dst
	}
	sc := f.getScratch()
	defer f.scratch.Put(sc)
	scores := sc.scores[:f.leaders.Slots()]
	f.leaders.ScanDot(vec, scores)
	pnorm := vecmath.Norm(vec)
	thr := tau - boundMargin

	hits := sc.hits[:0]
	if f.n >= 8192 && vecmath.Workers() > 1 && len(f.groups) > 1 {
		hits = f.scanGroupsParallel(vec, scores, pnorm, tau, thr, hits, vecmath.Workers())
	} else {
		for _, g := range f.groups {
			hits = f.scanGroup(g, vec, scores[g.leader], pnorm, tau, thr, sc, hits)
		}
	}
	top := topKHits(hits, k)
	dst = append(dst, top...)
	sc.hits = hits[:0]
	return dst
}

// scanGroup appends g's hits ≥ tau to hits through the shared
// rowArena.scanBounded bound-pruned scan.
func (f *Flat) scanGroup(g *flatGroup, vec []float32, leaderDot, pnorm, tau, thr float32, sc *flatScratch, hits []Hit) []Hit {
	return g.scanBounded(vec, f.dim, leaderDot, pnorm, tau, thr, &sc.group, hits)
}

// scanGroupsParallel fans the group scans across the worker pool for
// large indexes, with per-worker pooled scratch, and merges the local
// hit lists into hits. workers is a parameter (Search passes
// vecmath.Workers()) so the partition arithmetic is testable on any
// machine.
func (f *Flat) scanGroupsParallel(vec []float32, scores []float32, pnorm, tau, thr float32, hits []Hit, workers int) []Hit {
	if workers > len(f.groups) {
		workers = len(f.groups)
	}
	locals := make([]*flatScratch, workers)
	chunk := (len(f.groups) + workers - 1) / workers
	vecmath.ParallelFor(workers, func(wlo, whi int) {
		for w := wlo; w < whi; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			// ceil-sized chunks can push the final workers past the end
			// when workers does not divide the group count.
			if lo >= len(f.groups) {
				continue
			}
			if hi > len(f.groups) {
				hi = len(f.groups)
			}
			wsc := f.getScratch()
			local := wsc.hits[:0]
			for _, g := range f.groups[lo:hi] {
				local = f.scanGroup(g, vec, scores[g.leader], pnorm, tau, thr, wsc, local)
			}
			wsc.hits = local
			locals[w] = wsc
		}
	})
	for _, wsc := range locals {
		if wsc == nil {
			continue // worker whose range was past the end
		}
		hits = append(hits, wsc.hits...)
		wsc.hits = wsc.hits[:0]
		f.scratch.Put(wsc)
	}
	return hits
}

// MultiSearch scores a micro-batch of probes in one call: the leader
// slab is scanned once for the whole batch with the multi-probe kernel,
// and each probe then resolves its surviving groups from the shared
// score matrix. Results are per probe, identical to calling Search with
// each probe individually. The serving-path form is MultiSearchAppend;
// this wrapper allocates the result slices.
func (f *Flat) MultiSearch(probes *vecmath.Matrix, k int, tau float32) [][]Hit {
	out := make([][]Hit, probes.Rows)
	f.MultiSearchAppend(probes, k, tau, out)
	return out
}

// MultiSearchAppend implements MultiSearcher: one leader-slab pass for
// the whole batch, then the per-probe bound-pruned group scans, with
// each probe's hits appended to dst[p]. The score matrix and kernel
// chunk buffer come from the pooled scratch, so a warmed call allocates
// nothing beyond what the dst slices need to grow — this is the surface
// the per-tenant search batcher drives.
func (f *Flat) MultiSearchAppend(probes *vecmath.Matrix, k int, tau float32, dst [][]Hit) {
	if probes.Cols != f.dim {
		panic(fmt.Sprintf("index: MultiSearch dim %d, want %d", probes.Cols, f.dim))
	}
	m := probes.Rows
	if m == 0 {
		return
	}
	if len(dst) < m {
		panic(fmt.Sprintf("index: MultiSearch dst len %d, need %d", len(dst), m))
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.n == 0 || k <= 0 {
		return
	}
	slots := f.leaders.Slots()
	sc := f.getScratch()
	defer f.scratch.Put(sc)
	if cap(sc.multi) < m*slots {
		sc.multi = make([]float32, m*slots+(m*slots)/2+8)
	}
	per := f.leaders.ChunkRows()
	if cap(sc.chunk) < m*per {
		sc.chunk = make([]float32, m*per)
	}
	all := sc.multi[:m*slots]
	f.leaderScanMulti(probes, all, sc.chunk[:m*per])
	thr := tau - boundMargin
	for p := 0; p < m; p++ {
		vec := probes.Row(p)
		scores := all[p*slots : (p+1)*slots]
		pnorm := vecmath.Norm(vec)
		hits := sc.hits[:0]
		for _, g := range f.groups {
			hits = f.scanGroup(g, vec, scores[g.leader], pnorm, tau, thr, sc, hits)
		}
		top := topKHits(hits, k)
		dst[p] = append(dst[p], top...)
		sc.hits = hits[:0]
	}
}

// leaderScanMulti fills all (m probes × Slots scores, probe-major) using
// the blocked multi-probe kernel chunk by chunk, staging each chunk's
// kernel output in chunkOut (m×leaders.ChunkRows(), caller-provided).
func (f *Flat) leaderScanMulti(probes *vecmath.Matrix, all, chunkOut []float32) {
	m := probes.Rows
	slots := f.leaders.Slots()
	per := f.leaders.ChunkRows()
	for base := 0; base < slots; base += per {
		rows := min(per, slots-base)
		vecmath.ScanDotMulti(probes.Data, f.leaders.Chunk(base / per)[:rows*f.dim], chunkOut[:m*rows], m)
		for p := 0; p < m; p++ {
			copy(all[p*slots+base:p*slots+base+rows], chunkOut[p*rows:(p+1)*rows])
		}
	}
}
