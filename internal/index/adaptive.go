package index

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/vecmath"
)

// Adaptive tiers a tenant's index by size: it starts as an exact Flat
// scan (small caches stay exact and allocation-free), promotes to IVF
// once the entry count crosses FlatMax, and to HNSW past IVFMax. Each
// promotion builds the next tier in a background goroutine from a
// snapshot while the current tier keeps serving; writes that land during
// the build are journaled and replayed before the atomic swap, so no
// entry is lost and Search never waits on a migration: readers resolve
// the serving tier through an atomic pointer (never the writer lock), and
// the snapshot copies incrementally — one short read-lock window per
// vector — so neither a writer nor, through RWMutex writer preference,
// any later reader is ever parked behind a long snapshot pass.
//
// The zero-value thresholds are DefaultThresholds: measured once per
// process from this machine's scan speed, not set. Flat's exact scan
// wins below the first, and IVF's probe-list scan beats graph traversal
// until lists grow long.
type Adaptive struct {
	dim int
	cfg AdaptiveConfig

	// cur is the serving tier, resolved lock-free by readers.
	cur atomic.Pointer[tierRef]

	// mu serialises writers and the migration state below.
	mu        sync.Mutex
	migrating bool       // a background build is in flight
	journal   []tierOp   // writes since the migration snapshot
	done      *sync.Cond // on mu; broadcast when a migration finishes
}

// tierRef pairs the serving index with its tier number for one atomic
// swap.
type tierRef struct {
	idx  Index
	tier int // 0 = Flat, 1 = IVF, 2 = HNSW
}

// tierOp journals one write that happened during a migration build.
type tierOp struct {
	id     int
	vec    []float32 // nil = remove
	remove bool
}

// AdaptiveConfig tunes the tier thresholds and the promoted tiers'
// parameters. Zero values select the defaults; the serving stack passes
// the zero value, tests pin thresholds to reach a tier with few entries.
type AdaptiveConfig struct {
	// FlatMax is the entry count past which the Flat tier promotes to
	// IVF. Default: DefaultThresholds' first value.
	FlatMax int
	// IVFMax is the entry count past which the IVF tier promotes to
	// HNSW. Default: DefaultThresholds' second value (raised to
	// 4·FlatMax when FlatMax alone is set at or past it, so the default
	// never silently disables IVF). Set IVFMax explicitly at or below
	// FlatMax — negative values are normalised to FlatMax — to skip the
	// IVF tier entirely: Flat then promotes straight to HNSW at FlatMax.
	IVFMax int
	// IVF configures the middle tier (NList/TrainSize are sized from
	// FlatMax when zero, so the promoted index trains immediately).
	IVF IVFConfig
	// HNSW configures the top tier.
	HNSW HNSWConfig
}

// NewAdaptive creates an adaptive index for dim-dimensional unit vectors.
func NewAdaptive(dim int, cfg AdaptiveConfig) *Adaptive {
	if dim <= 0 {
		panic("index: dim must be positive")
	}
	if cfg.FlatMax <= 0 || cfg.IVFMax == 0 {
		flatMax, ivfMax := DefaultThresholds(dim)
		if cfg.FlatMax <= 0 {
			cfg.FlatMax = flatMax
		}
		if cfg.IVFMax == 0 {
			// Default the second threshold — but never let the default
			// itself imply skip-IVF: a caller raising only FlatMax past it
			// would otherwise silently lose the middle tier. Skipping IVF
			// stays an explicit choice (IVFMax set at or below FlatMax).
			cfg.IVFMax = ivfMax
			if cfg.IVFMax <= cfg.FlatMax {
				cfg.IVFMax = 4 * cfg.FlatMax
			}
		}
	}
	if cfg.IVFMax < 0 {
		// Negative values are normalised to the canonical skip-IVF marker
		// so the promotion state machine only ever compares sane counts.
		cfg.IVFMax = cfg.FlatMax
	}
	if cfg.IVF.NList <= 0 {
		// ~√FlatMax lists at promotion time; the index grows past that,
		// but re-training is IVF's own concern.
		cfg.IVF.NList = isqrt(cfg.FlatMax * 4)
	}
	if cfg.IVF.TrainSize <= 0 {
		// Train on the full snapshot the moment the tier is built.
		cfg.IVF.TrainSize = cfg.FlatMax
	}
	a := &Adaptive{dim: dim, cfg: cfg}
	a.cur.Store(&tierRef{idx: NewFlat(dim), tier: 0})
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

// Tier reports the currently serving tier: "flat", "ivf" or "hnsw".
func (a *Adaptive) Tier() string {
	switch a.cur.Load().tier {
	case 0:
		return "flat"
	case 1:
		return "ivf"
	default:
		return "hnsw"
	}
}

// ArenaStats implements ArenaReporter by delegating to whichever tier
// currently serves (every tier implements it).
func (a *Adaptive) ArenaStats() ArenaStats {
	if rep, ok := a.cur.Load().idx.(ArenaReporter); ok {
		return rep.ArenaStats()
	}
	return ArenaStats{}
}

// Thresholds reports the normalised promotion thresholds: the entry
// counts past which Flat promotes (to IVF, or straight to HNSW when
// skip-IVF is in effect) and past which IVF promotes to HNSW.
func (a *Adaptive) Thresholds() (flatMax, ivfMax int) {
	return a.cfg.FlatMax, a.cfg.IVFMax
}

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

// SearchAppend implements SearchAppender through the serving tier's own
// SearchAppend when it has one, so a tenant on Flat or IVF keeps the
// allocation-free path behind the wrapper.
func (a *Adaptive) SearchAppend(vec []float32, k int, tau float32, dst []Hit) []Hit {
	idx := a.cur.Load().idx
	if sa, ok := idx.(SearchAppender); ok {
		return sa.SearchAppend(vec, k, tau, dst)
	}
	return append(dst, idx.Search(vec, k, tau)...)
}

// MultiSearchAppend implements MultiSearcher with the same lock-free
// tier resolution as Search: one atomic load pins the serving tier for
// the whole batch, so every probe in the batch answers against the same
// index even if a migration swaps tiers mid-call.
func (a *Adaptive) MultiSearchAppend(probes *vecmath.Matrix, k int, tau float32, dst [][]Hit) {
	idx := a.cur.Load().idx
	if ms, ok := idx.(MultiSearcher); ok {
		ms.MultiSearchAppend(probes, k, tau, dst)
		return
	}
	for p := 0; p < probes.Rows; p++ {
		dst[p] = append(dst[p], idx.Search(probes.Row(p), k, tau)...)
	}
}

// forEach implements iterable.
func (a *Adaptive) forEach(fn func(id int, vec []float32)) {
	a.cur.Load().idx.(iterable).forEach(fn)
}

// idList implements snapshotter.
func (a *Adaptive) idList() []int { return a.cur.Load().idx.(snapshotter).idList() }

// vecClone implements snapshotter.
func (a *Adaptive) vecClone(id int) []float32 {
	return a.cur.Load().idx.(snapshotter).vecClone(id)
}

// maybePromoteLocked kicks off a background promotion when the current
// tier outgrew its threshold. Callers hold a.mu.
func (a *Adaptive) maybePromoteLocked() {
	ref := a.cur.Load()
	n := ref.idx.Len()
	var next Index
	var nextTier int
	switch {
	case ref.tier == 0 && a.cfg.IVFMax > a.cfg.FlatMax && n > a.cfg.FlatMax:
		next, nextTier = NewIVF(a.dim, a.cfg.IVF), 1
	case ref.tier == 0 && a.cfg.IVFMax <= a.cfg.FlatMax && n > a.cfg.FlatMax:
		next, nextTier = NewHNSW(a.dim, a.cfg.HNSW), 2 // IVF tier disabled
	case ref.tier == 1 && n > a.cfg.IVFMax:
		next, nextTier = NewHNSW(a.dim, a.cfg.HNSW), 2
	default:
		return
	}
	a.migrating = true
	a.journal = a.journal[:0]
	go a.migrate(ref.idx, next, nextTier)
}

// migrate snapshots the current tier and builds the next one entirely
// off a.mu, catches up on journaled writes, and swaps the tier in. The
// snapshot is incremental — one short read lock for the ID list, then one
// per vector copy — so the longest the old tier's lock is ever held is a
// single clone: a concurrent writer queues for microseconds, not for the
// whole O(n·dim) pass (RWMutex writer preference would otherwise park
// every Search behind that writer). Entries that mutate between the
// promotion decision and their copy appear in both the snapshot and the
// journal — applyOps tolerates the duplicate Adds, vanished IDs simply
// skip, and replay order makes the journal's last word win.
func (a *Adaptive) migrate(cur, next Index, nextTier int) {
	snapper := cur.(snapshotter)
	var snap []tierOp
	for _, id := range snapper.idList() {
		if vec := snapper.vecClone(id); vec != nil {
			snap = append(snap, tierOp{id: id, vec: vec})
		}
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
	a.cur.Store(&tierRef{idx: next, tier: nextTier})
	a.migrating = false
	a.journal = nil
	// The new tier may immediately qualify for the next promotion (a bulk
	// load that blew past IVFMax while the IVF build ran — later Adds only
	// journal during a migration, so the chain can only continue here).
	// Running it before the flag drop is observable keeps WaitMigration
	// from returning mid-chain on a stale Broadcast.
	a.maybePromoteLocked()
	a.mu.Unlock()
	a.done.Broadcast()
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
