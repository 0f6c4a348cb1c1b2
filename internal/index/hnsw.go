package index

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/vecmath"
)

// HNSW is a hierarchical navigable-small-world graph (Malkov & Yashunin):
// every vector becomes a node with links on levels 0..L, where L is drawn
// lazily at insert time from a geometric distribution. Searches greedily
// descend the sparse upper layers to a good entry point, then run a
// best-first beam of width efSearch over the dense bottom layer —
// logarithmic work where Flat pays a full scan.
//
// Remove tombstones the node's slot and repairs the graph around it: each
// former neighbor is reconnected through the removed node's own links, so
// connectivity (and therefore recall) survives churn, and tombstoned slots
// are recycled by later Adds.
type HNSW struct {
	mu   sync.RWMutex
	dim  int
	cfg  HNSWConfig
	mult float64 // level multiplier 1/ln(M)
	rng  *rand.Rand

	nodes    []*hnswNode   // slot-addressed; tombstoned slots recycled
	slots    map[int]int32 // external id → slot
	freeList []int32       // tombstoned slots awaiting reuse
	entry    int32         // slot of the top-level entry point, -1 when empty
	maxLevel int
	live     int

	// visitedPool recycles epoch-stamped visited sets across searches —
	// a map here costs more than the distance math at beam widths ≥ 64.
	visitedPool sync.Pool
}

// maxHNSWLevel caps the drawn node level: with M ≥ 2 the probability of
// level 48 is ~2^-48, so the cap never binds in practice — it bounds the
// per-node link allocation against pathological RNG draws.
const maxHNSWLevel = 48

// visitedSet marks slots visited in O(1) without per-search allocation:
// stamps[s] == epoch means visited this search; bumping epoch clears all.
type visitedSet struct {
	stamps []uint32
	epoch  uint32
}

func (h *HNSW) getVisited() *visitedSet {
	v, _ := h.visitedPool.Get().(*visitedSet)
	if v == nil {
		v = &visitedSet{}
	}
	if len(v.stamps) < len(h.nodes) {
		v.stamps = make([]uint32, len(h.nodes)+len(h.nodes)/2+8)
		v.epoch = 0
	}
	v.epoch++
	if v.epoch == 0 { // wrapped: stamps may alias the new epoch
		clear(v.stamps)
		v.epoch = 1
	}
	return v
}

func (v *visitedSet) visit(s int32) bool {
	if v.stamps[s] == v.epoch {
		return false
	}
	v.stamps[s] = v.epoch
	return true
}

type hnswNode struct {
	id    int
	vec   []float32
	level int
	links [][]int32 // per level 0..level; slot indices
	dead  bool      // tombstoned: unlinked, invisible, slot reusable
}

// HNSWConfig tunes the graph. Zero values select the defaults.
type HNSWConfig struct {
	// M is the maximum number of links per node on levels above 0
	// (level 0 allows 2·M). Default 16.
	M int
	// EfConstruction is the beam width used while inserting. Higher =
	// better graph quality, slower Add. Default 200.
	EfConstruction int
	// EfSearch is the beam width used while querying (raised to k when
	// k is larger). Higher = better recall, slower Search. Default 96.
	EfSearch int
	// Seed drives the level distribution.
	Seed int64
}

// NewHNSW creates an HNSW index for dim-dimensional unit vectors.
func NewHNSW(dim int, cfg HNSWConfig) *HNSW {
	if dim <= 0 {
		panic("index: dim must be positive")
	}
	if cfg.M <= 0 {
		cfg.M = 16
	}
	if cfg.M < 2 {
		cfg.M = 2 // M=1 would make the level multiplier 1/ln(1) = +Inf
	}
	if cfg.EfConstruction <= 0 {
		cfg.EfConstruction = 200
	}
	if cfg.EfConstruction < cfg.M {
		cfg.EfConstruction = cfg.M
	}
	if cfg.EfSearch <= 0 {
		cfg.EfSearch = 96
	}
	return &HNSW{
		dim:   dim,
		cfg:   cfg,
		mult:  1 / math.Log(float64(cfg.M)),
		rng:   rand.New(rand.NewSource(cfg.Seed + 77)),
		slots: make(map[int]int32),
		entry: -1,
	}
}

// Dim implements Index.
func (h *HNSW) Dim() int { return h.dim }

// Len implements Index.
func (h *HNSW) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.live
}

// Tier implements TierNamer.
func (h *HNSW) Tier() string { return "hnsw" }

// ArenaStats implements ArenaReporter over the slot-addressed node
// store: tombstoned slots sit on the free list until reused.
func (h *HNSW) ArenaStats() ArenaStats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return ArenaStats{
		Rows:      h.live,
		Slots:     len(h.nodes),
		FreeSlots: len(h.freeList),
	}
}

// maxLinks is the link budget at a level: 2·M on the dense bottom layer,
// M above.
func (h *HNSW) maxLinks(level int) int {
	if level == 0 {
		return 2 * h.cfg.M
	}
	return h.cfg.M
}

// score is the similarity of the stored slot to a query.
func (h *HNSW) score(q []float32, s int32) float32 {
	return vecmath.Dot(q, h.nodes[s].vec)
}

// simNodes is the slot-to-slot similarity used by neighbor selection and
// repair.
func (h *HNSW) simNodes(a, b int32) float32 {
	return vecmath.Dot(h.nodes[a].vec, h.nodes[b].vec)
}

// Add implements Index. The node's level is assigned lazily here — drawn
// from the geometric distribution floor(-ln(U)·mL) — rather than
// pre-allocated, so the hierarchy grows only as tall as its data demands.
func (h *HNSW) Add(id int, vec []float32) error {
	if len(vec) != h.dim {
		return fmt.Errorf("index: vector dim %d, want %d", len(vec), h.dim)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.slots[id]; dup {
		return fmt.Errorf("index: duplicate id %d", id)
	}
	u := h.rng.Float64()
	for u == 0 { // -log(0) = +Inf; redraw the (measure-zero) boundary
		u = h.rng.Float64()
	}
	level := int(math.Floor(-math.Log(u) * h.mult))
	if level > maxHNSWLevel {
		level = maxHNSWLevel
	}
	n := &hnswNode{
		id:    id,
		vec:   vecmath.Clone(vec),
		level: level,
		links: make([][]int32, level+1),
	}
	slot := h.claimSlot(n)
	h.slots[id] = slot
	h.live++

	if h.entry < 0 {
		h.entry, h.maxLevel = slot, level
		return nil
	}

	// Greedy descent through layers above the new node's level.
	ep := h.entry
	for l := h.maxLevel; l > level; l-- {
		ep = h.greedyStep(vec, ep, l)
	}
	// Beam search + heuristic linking on each shared layer.
	top := level
	if top > h.maxLevel {
		top = h.maxLevel
	}
	for l := top; l >= 0; l-- {
		cands := h.searchLayer(vec, ep, h.cfg.EfConstruction, l)
		// A stale one-way edge into a recycled slot can lead the beam to
		// the node being inserted; drop it so n never self-links.
		for i := 0; i < len(cands); {
			if cands[i].slot == slot {
				cands = append(cands[:i], cands[i+1:]...)
			} else {
				i++
			}
		}
		sel := h.selectNeighbors(cands, h.cfg.M)
		n.links[l] = sel
		for _, s := range sel {
			nb := h.nodes[s]
			nb.links[l] = append(nb.links[l], slot)
			if max := h.maxLinks(l); len(nb.links[l]) > max {
				h.shrinkLinks(s, l, max)
			}
		}
		if len(cands) > 0 {
			ep = cands[0].slot
		}
	}
	if level > h.maxLevel {
		h.entry, h.maxLevel = slot, level
	}
	return nil
}

// claimSlot stores n in a recycled tombstone slot when one is free,
// appending otherwise.
func (h *HNSW) claimSlot(n *hnswNode) int32 {
	if k := len(h.freeList); k > 0 {
		slot := h.freeList[k-1]
		h.freeList = h.freeList[:k-1]
		h.nodes[slot] = n
		return slot
	}
	h.nodes = append(h.nodes, n)
	return int32(len(h.nodes) - 1)
}

// greedyStep hill-climbs layer l from ep to the locally best node. Moves
// are restricted to nodes that actually have layer l: links are not fully
// symmetric (shrinkLinks and slot recycling can leave one-way edges), so a
// neighbor reached through a stale edge may be a recycled node with a
// lower level.
func (h *HNSW) greedyStep(q []float32, ep int32, l int) int32 {
	cur, curScore := ep, h.score(q, ep)
	for improved := true; improved; {
		improved = false
		for _, s := range h.nodes[cur].links[l] {
			if len(h.nodes[s].links) <= l {
				continue
			}
			if sc := h.score(q, s); sc > curScore {
				cur, curScore, improved = s, sc, true
			}
		}
	}
	return cur
}

// scoredSlot pairs a slot with its traversal score.
type scoredSlot struct {
	slot  int32
	score float32
}

// searchLayer runs the best-first beam of width ef over layer l, returning
// up to ef candidates sorted best first. Tombstoned nodes stay traversable
// (they keep their links until the slot is recycled, so routes through
// them survive) but are never admitted to the result set; nodes without
// layer l — reachable through stale one-way edges after slot recycling —
// are skipped entirely.
func (h *HNSW) searchLayer(q []float32, ep int32, ef, l int) []scoredSlot {
	visited := h.getVisited()
	defer h.visitedPool.Put(visited)
	visited.visit(ep)
	epScore := h.score(q, ep)
	// cand: max-heap (best first) of frontier; result: min-heap (worst
	// first) bounded at ef.
	cand := []scoredSlot{{ep, epScore}}
	var result []scoredSlot
	if n := h.nodes[ep]; !n.dead && len(n.links) > l {
		result = append(result, scoredSlot{ep, epScore})
	}
	for len(cand) > 0 {
		c := cand[0]
		last := len(cand) - 1
		cand[0] = cand[last]
		cand = cand[:last]
		siftDownSlots(cand, 0, false)
		if len(result) >= ef && c.score < result[0].score {
			break
		}
		for _, s := range h.nodes[c.slot].links[l] {
			if !visited.visit(s) {
				continue
			}
			n := h.nodes[s]
			if len(n.links) <= l {
				continue // recycled into a lower level: not on this layer
			}
			sc := h.score(q, s)
			if len(result) < ef || sc > result[0].score {
				cand = append(cand, scoredSlot{s, sc})
				siftUpSlots(cand, len(cand)-1, false)
				if n.dead {
					continue // routable, but never a result or link target
				}
				result = append(result, scoredSlot{s, sc})
				siftUpSlots(result, len(result)-1, true)
				if len(result) > ef {
					last := len(result) - 1
					result[0] = result[last]
					result = result[:last]
					siftDownSlots(result, 0, true)
				}
			}
		}
	}
	// Pop the min-heap into best-first order.
	for end := len(result) - 1; end > 0; end-- {
		result[0], result[end] = result[end], result[0]
		siftDownSlots(result[:end], 0, true)
	}
	return result
}

// siftUpSlots/siftDownSlots maintain a binary heap over scoredSlots.
// min=true keeps the worst score at the root (bounded result set);
// min=false keeps the best at the root (frontier).
func siftUpSlots(hp []scoredSlot, i int, min bool) {
	for i > 0 {
		p := (i - 1) / 2
		if slotBefore(hp[i], hp[p], min) {
			hp[i], hp[p] = hp[p], hp[i]
			i = p
			continue
		}
		return
	}
}

func siftDownSlots(hp []scoredSlot, i int, min bool) {
	for {
		left := 2*i + 1
		if left >= len(hp) {
			return
		}
		best := left
		if right := left + 1; right < len(hp) && slotBefore(hp[right], hp[left], min) {
			best = right
		}
		if !slotBefore(hp[best], hp[i], min) {
			return
		}
		hp[i], hp[best] = hp[best], hp[i]
		i = best
	}
}

func slotBefore(a, b scoredSlot, min bool) bool {
	if min {
		return a.score < b.score
	}
	return a.score > b.score
}

// selectNeighbors applies the HNSW diversity heuristic: walk candidates
// best-first, keeping one only if it is closer to the new node than to any
// already-kept neighbor. This spreads links across clusters instead of
// piling them onto near-duplicates, which is what keeps recall high on
// clustered data.
func (h *HNSW) selectNeighbors(cands []scoredSlot, m int) []int32 {
	sel := make([]int32, 0, m)
	for _, c := range cands {
		if len(sel) >= m {
			break
		}
		keep := true
		for _, s := range sel {
			if h.simNodes(c.slot, s) > c.score {
				keep = false
				break
			}
		}
		if keep {
			sel = append(sel, c.slot)
		}
	}
	// Backfill with skipped candidates if diversity left spare budget.
	if len(sel) < m {
		for _, c := range cands {
			if len(sel) >= m {
				break
			}
			dup := false
			for _, s := range sel {
				if s == c.slot {
					dup = true
					break
				}
			}
			if !dup {
				sel = append(sel, c.slot)
			}
		}
	}
	return sel
}

// shrinkLinks re-selects the slot's layer-l links down to max using the
// same diversity heuristic.
func (h *HNSW) shrinkLinks(nbSlot int32, l, max int) {
	nb := h.nodes[nbSlot]
	cands := make([]scoredSlot, 0, len(nb.links[l]))
	for _, s := range nb.links[l] {
		cands = append(cands, scoredSlot{s, h.simNodes(nbSlot, s)})
	}
	sortScoredSlots(cands)
	nb.links[l] = h.selectNeighbors(cands, max)
}

func sortScoredSlots(ss []scoredSlot) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].score > ss[j-1].score; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// Remove implements Index: the node is tombstoned (slot recycled by later
// Adds) and its former neighbors are repaired by connecting them through
// the removed node's own links, so the graph does not fragment under
// churn.
func (h *HNSW) Remove(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	slot, ok := h.slots[id]
	if !ok {
		return
	}
	n := h.nodes[slot]
	n.dead = true
	delete(h.slots, id)
	h.live--

	for l := 0; l <= n.level; l++ {
		for _, u := range n.links[l] {
			un := h.nodes[u]
			if un.dead || len(un.links) <= l {
				continue
			}
			h.repairNode(un, l, slot, n.links[l])
		}
	}
	// The tombstone keeps its vector and links: one-way edges from nodes
	// the repair pass could not see may still route through it, and a
	// recycled slot must never be reachable at a level it no longer has.
	// The memory is reclaimed when claimSlot reuses the slot.
	h.freeList = append(h.freeList, slot)

	if h.entry == slot {
		h.entry, h.maxLevel = -1, 0
		for s, cand := range h.nodes {
			if !cand.dead && (h.entry < 0 || cand.level > h.maxLevel) {
				h.entry, h.maxLevel = int32(s), cand.level
			}
		}
	}
}

// repairNode drops the tombstoned slot from un's layer-l links and
// re-selects from the union of its remaining links and the removed node's
// links (connect-through).
func (h *HNSW) repairNode(un *hnswNode, l int, gone int32, through []int32) {
	unSlot := h.slots[un.id]
	seen := map[int32]bool{gone: true, unSlot: true}
	cands := make([]scoredSlot, 0, len(un.links[l])+len(through))
	for _, s := range un.links[l] {
		if !seen[s] && !h.nodes[s].dead && len(h.nodes[s].links) > l {
			seen[s] = true
			cands = append(cands, scoredSlot{s, h.simNodes(unSlot, s)})
		}
	}
	for _, s := range through {
		if !seen[s] && !h.nodes[s].dead && len(h.nodes[s].links) > l {
			seen[s] = true
			cands = append(cands, scoredSlot{s, h.simNodes(unSlot, s)})
		}
	}
	sortScoredSlots(cands)
	un.links[l] = h.selectNeighbors(cands, h.maxLinks(l))
}

// forEach implements iterable.
func (h *HNSW) forEach(fn func(id int, vec []float32)) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, n := range h.nodes {
		if !n.dead {
			fn(n.id, n.vec)
		}
	}
}

// idList implements snapshotter.
func (h *HNSW) idList() []int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]int, 0, len(h.slots))
	for id := range h.slots {
		out = append(out, id)
	}
	return out
}

// vecClone implements snapshotter.
func (h *HNSW) vecClone(id int) []float32 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	slot, ok := h.slots[id]
	if !ok {
		return nil
	}
	return vecmath.Clone(h.nodes[slot].vec)
}

// Search implements Index: greedy descent to layer 1, then an
// ef-wide beam over layer 0.
func (h *HNSW) Search(vec []float32, k int, tau float32) []Hit {
	if len(vec) != h.dim {
		panic(fmt.Sprintf("index: Search dim %d, want %d", len(vec), h.dim))
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.live == 0 || k <= 0 || h.entry < 0 {
		return nil
	}
	return h.searchLocked(vec, k, tau, nil)
}

// searchLocked is Search's traversal body, appending its hits to dst.
// Callers hold the read lock and have handled the empty-index cases.
func (h *HNSW) searchLocked(vec []float32, k int, tau float32, dst []Hit) []Hit {
	ef := h.cfg.EfSearch
	if ef < k {
		ef = k
	}
	ep := h.entry
	for l := h.maxLevel; l > 0; l-- {
		ep = h.greedyStep(vec, ep, l)
	}
	cands := h.searchLayer(vec, ep, ef, 0)
	base := len(dst)
	for _, c := range cands {
		if c.score >= tau {
			dst = append(dst, Hit{ID: h.nodes[c.slot].id, Score: c.score})
		}
	}
	tail := topKHits(dst[base:], k)
	return dst[:base+len(tail)]
}
