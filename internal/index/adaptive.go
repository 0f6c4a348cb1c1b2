package index

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/vecmath"
)

// Adaptive tiers a tenant's index by size: it starts as an exact Flat
// scan (small caches stay exact and allocation-free), promotes to IVF
// once the entry count crosses FlatMax, and regrows that IVF into a
// fresh one, its lists sized to the tenant, whenever the tenant holds
// more than regrowFactor times the entries the serving IVF was built
// from. Each build runs in a background goroutine from a snapshot while
// the current tier keeps serving; writes that land during the build are
// journaled and replayed before the atomic swap, so no entry is lost and
// Search never waits on a build: readers resolve the serving tier
// through an atomic pointer (never the writer lock), and the snapshot
// copies incrementally — one short read-lock window per vector — so
// neither a writer nor, through RWMutex writer preference, any later
// reader is ever parked behind a long snapshot pass.
//
// The zero-value threshold is DefaultFlatMax: measured once per process
// from this machine's scan speed, not set.
type Adaptive struct {
	dim     int
	flatMax int

	// cur is the serving tier, resolved lock-free by readers.
	cur atomic.Pointer[tierRef]

	// mu serialises writers and the migration state below.
	mu        sync.Mutex
	migrating bool       // a background build is in flight
	journal   []tierOp   // writes since the migration snapshot
	done      *sync.Cond // on mu; broadcast when a migration finishes
}

// regrowFactor is how far a tenant outgrows its IVF before the tier is
// rebuilt: past regrowFactor × the entries it was built from.
const regrowFactor = 4

// tierIndex is what both tiers, Flat and IVF, implement.
type tierIndex interface {
	Index
	SearchAppender
	ArenaReporter
	snapshotter
}

// tierRef pairs the serving index with the entry count its build was
// decided at (the rows it was built from, less any removed meanwhile),
// for one atomic swap.
type tierRef struct {
	idx   tierIndex
	built int // 0 while Flat serves
}

// tierOp journals one write that happened during a migration build.
type tierOp struct {
	id     int
	vec    []float32 // nil = remove
	remove bool
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
		cfg.FlatMax = DefaultFlatMax(dim)
	}
	a := &Adaptive{dim: dim, flatMax: cfg.FlatMax}
	a.cur.Store(&tierRef{idx: NewFlat(dim)})
	a.done = sync.NewCond(&a.mu)
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

// Tier reports the currently serving tier: "flat" or "ivf".
func (a *Adaptive) Tier() string {
	if a.cur.Load().built == 0 {
		return "flat"
	}
	return "ivf"
}

// ArenaStats implements ArenaReporter by delegating to whichever tier
// currently serves.
func (a *Adaptive) ArenaStats() ArenaStats { return a.cur.Load().idx.ArenaStats() }

// WaitMigration blocks until no migration is in flight — deterministic
// sequencing for tests and the load generator.
func (a *Adaptive) WaitMigration() {
	a.mu.Lock()
	for a.migrating {
		a.done.Wait()
	}
	a.mu.Unlock()
}

// Add implements Index.
func (a *Adaptive) Add(id int, vec []float32) error {
	if len(vec) != a.dim {
		return fmt.Errorf("index: vector dim %d, want %d", len(vec), a.dim)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.cur.Load().idx.Add(id, vec); err != nil {
		return err
	}
	if a.migrating {
		a.journal = append(a.journal, tierOp{id: id, vec: vecmath.Clone(vec)})
		return nil
	}
	a.maybePromoteLocked()
	return nil
}

// Remove implements Index.
func (a *Adaptive) Remove(id int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cur.Load().idx.Remove(id)
	if a.migrating {
		a.journal = append(a.journal, tierOp{id: id, remove: true})
	}
}

// Search implements Index, lock-free: the serving tier is an atomic load
// and every tier is internally synchronised, so a migration swap (or a
// writer stalled behind a snapshot) concurrent with a long search is safe
// — the search finishes against the (complete) old tier.
func (a *Adaptive) Search(vec []float32, k int, tau float32) []Hit {
	return a.cur.Load().idx.Search(vec, k, tau)
}

// SearchAppend implements SearchAppender through the serving tier's
// own, so the allocation-free path survives the wrapper.
func (a *Adaptive) SearchAppend(vec []float32, k int, tau float32, dst []Hit) []Hit {
	return a.cur.Load().idx.SearchAppend(vec, k, tau, dst)
}

// maybePromoteLocked kicks off a background build when the serving tier
// outgrew its limit: FlatMax for Flat, regrowFactor × its build count
// for IVF. Callers hold a.mu.
func (a *Adaptive) maybePromoteLocked() {
	ref := a.cur.Load()
	n := ref.idx.Len()
	limit := a.flatMax
	if ref.built > 0 {
		limit = regrowFactor * ref.built
	}
	if n <= limit {
		return
	}
	a.migrating = true
	a.journal = a.journal[:0]
	go a.migrate(ref, n)
}

// migrate snapshots the serving tier, builds a fresh IVF from it
// entirely off a.mu, catches up on journaled writes, and swaps the new
// tier in. The snapshot is incremental — one short read lock for the ID
// list, then one per vector copy — so the longest the old tier's lock
// is ever held is a single clone: a concurrent writer queues for
// microseconds, not for the whole O(n·dim) pass (RWMutex writer
// preference would otherwise park every Search behind that writer).
// Entries that mutate between the build decision and their copy appear
// in both the snapshot and the journal — applyOps tolerates the
// duplicate Adds, vanished IDs simply skip, and replay order makes the
// journal's last word win.
func (a *Adaptive) migrate(from *tierRef, n int) {
	var snap []tierOp
	for _, id := range from.idx.idList() {
		if vec := from.idx.vecClone(id); vec != nil {
			snap = append(snap, tierOp{id: id, vec: vec})
		}
	}
	var next *IVF
	if from.built == 0 {
		// The first promotion trains on the first FlatMax rows in Flat's
		// own order, as soon as they land.
		next = NewIVF(a.dim, IVFConfig{NList: isqrt(4 * a.flatMax), TrainSize: a.flatMax})
	} else {
		next, snap = regrownIVF(a.dim, snap)
	}
	applyOps(next, snap)
	// Drain the journal in rounds off-lock until one round's residue is
	// small, then apply that last batch under the lock together with the
	// swap. With a convergent load (writes slower than the new tier can
	// absorb them) the under-lock batch is ≤ finalBatchMax, a
	// milliseconds-scale writer stall; if writes outpace the build
	// indefinitely the round cap forces the swap anyway and the one-time
	// writer stall is proportional to the outstanding backlog — searches
	// stay on the old tier either way.
	const finalBatchMax = 256
	for round := 0; ; round++ {
		a.mu.Lock()
		if len(a.journal) == 0 {
			break
		}
		batch := a.journal
		a.journal = nil
		if len(batch) <= finalBatchMax || round >= 15 {
			applyOps(next, batch)
			break
		}
		a.mu.Unlock()
		applyOps(next, batch)
	}
	// a.mu is held here (both break paths leave it locked).
	a.cur.Store(&tierRef{idx: next, built: n})
	a.migrating = false
	a.journal = nil
	// The new tier may immediately qualify for a regrowth (a bulk load
	// that blew past regrowFactor × n while the build ran — later Adds
	// only journal during a migration, so the chain can only continue
	// here). Running it before the flag drop is observable keeps
	// WaitMigration from returning mid-chain on a stale Broadcast.
	a.maybePromoteLocked()
	a.mu.Unlock()
	a.done.Broadcast()
}

// regrownIVF sizes a fresh IVF to the snapshot it is built from —
// isqrt(4·rows) lists, IVF's default probes — and orders the snapshot so
// that k-means trains on an even sample of it: the rows are sorted by ID,
// every (rows/m)-th of them goes first, and a TrainSize of m makes the
// IVF train the moment the last of those m lands. m is 32 rows per list,
// capped at the snapshot.
func regrownIVF(dim int, snap []tierOp) (*IVF, []tierOp) {
	sort.Slice(snap, func(i, j int) bool { return snap[i].id < snap[j].id })
	nlist := isqrt(4 * len(snap))
	m := min(32*nlist, len(snap))
	ordered := make([]tierOp, 0, len(snap))
	sampled := make([]bool, len(snap))
	for i := 0; i < m; i++ {
		j := i * len(snap) / m
		sampled[j] = true
		ordered = append(ordered, snap[j])
	}
	for j, op := range snap {
		if !sampled[j] {
			ordered = append(ordered, op)
		}
	}
	return NewIVF(dim, IVFConfig{NList: nlist, TrainSize: m}), ordered
}

// applyOps replays ops in order. Add errors are expected and ignored: a
// journaled Add may duplicate a snapshot entry (see migrate), and the
// journal's later ops supersede earlier state either way.
func applyOps(idx Index, ops []tierOp) {
	for _, op := range ops {
		if op.remove {
			idx.Remove(op.id)
		} else {
			idx.Add(op.id, op.vec)
		}
	}
}
