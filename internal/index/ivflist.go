package index

import (
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/vecmath"
)

// ivfList is one inverted list: a row arena plus, parallel to its rows,
// each row's norm and its int8 code (row-major, len(ids) × dim), scale
// and quantisation error bound from vecmath.Quantize. The code columns
// move with their rows on every swap-delete, so a scan is one linear pass
// over the codes.
//
// The arena's vectors and the codes share one private anonymous mapping
// outside the Go heap (newRowMem; on the heap where a platform has no
// mappings): the collector neither scans them nor counts them toward
// its heap goal, and capacity no row has reached is never faulted in.
// A grow unmaps the old mapping at once; a list that is dropped unmaps
// its mapping in a cleanup once it is unreachable. Every view of the
// rows (scan, row, rows) must therefore be used while its list is
// reachable, and never across a write: writers hold IVF.mu's write
// lock, readers its read lock.
type ivfList struct {
	arena
	norms   []float32
	codes   []int8
	scales  []float32
	errs    []float32
	normMax float32 // ≥ max(norms) over finite norms; stale-high after removals (safe)

	mem  []byte          // the mapping vecs and codes live in; nil while they are on the heap
	free runtime.Cleanup // unmaps mem once the list is unreachable
}

// mappedBytes is the memory IVF lists hold in anonymous mappings,
// process-wide like the runtime's own memory statistics.
var mappedBytes atomic.Int64

// MappedBytes reports the bytes of row vectors and codes this process's
// IVF lists hold in anonymous mappings outside the Go heap, counting
// capacity not yet filled (which costs address space, not memory).
func MappedBytes() int64 { return mappedBytes.Load() }

// add appends a row, quantising it. The codes keep the arena's row
// capacity.
func (l *ivfList) add(id int, vec []float32) {
	n := len(l.ids)
	if l.full() {
		l.grow(l.grownRows())
	}
	l.arena.add(id, vec)
	norm := vecmath.Norm(vec)
	l.norms = append(l.norms, norm)
	if norm > l.normMax { // not for a NaN norm: that row's err is +Inf
		l.normMax = norm
	}
	l.codes = l.codes[:len(l.vecs)]
	scale, err := vecmath.Quantize(vec, l.codes[n*l.dim:])
	l.scales = append(l.scales, scale)
	l.errs = append(l.errs, err)
}

// grow moves the list's vectors and codes into room for rows rows and
// unmaps the mapping they leave, so a view of the old rows taken before
// the grow faults. The caller holds the write lock, so no reader holds
// such a view.
func (l *ivfList) grow(rows int) {
	vecs, codes, mem := newRowMem(rows * l.dim)
	l.vecs = vecs[:copy(vecs, l.vecs)]
	l.codes = codes[:copy(codes, l.codes)]
	l.ids = withCap(l.ids, rows)
	if l.mem != nil {
		l.free.Stop()
		freeRowMem(l.mem)
	}
	l.mem = mem
	if mem != nil {
		l.free = runtime.AddCleanup(l, freeRowMem, mem)
	}
}

// swapDelete is arena.swapDelete carrying the code columns along; the
// vacated tail code is zeroed with its row.
func (l *ivfList) swapDelete(i int) (movedID int, moved bool) {
	dim, last := l.dim, len(l.ids)-1
	if i != last {
		copy(l.codes[i*dim:(i+1)*dim], l.codes[last*dim:])
		l.norms[i] = l.norms[last]
		l.scales[i] = l.scales[last]
		l.errs[i] = l.errs[last]
	}
	clear(l.codes[last*dim:])
	l.codes = l.codes[:last*dim]
	l.norms = l.norms[:last]
	l.scales = l.scales[:last]
	l.errs = l.errs[:last]
	return l.arena.swapDelete(i)
}

// boundMargin widens the pre-filter's comparison so float32 rounding in
// the bound can never exclude a row a Dot-based oracle would admit.
const boundMargin = 1e-3

// q8Range caps ‖q‖·max‖x‖ for the code pre-filter: below it no term of
// the bound overflows float32 and every rounding error in it is relative,
// so q8Probe's slack covers it. Lists past it are scored densely.
const q8Range = 1e30

// q8Probe is a search probe's side of the code bound. For a row x with
// code x̂, scale s_x and error bound err_x, vecmath.Quantize gives
//
//	q·x ≤ s_q·s_x·(q̂·x̂) + err_q·‖x‖ + ‖q̃‖·err_x,
//
// with ‖q̃‖ ≤ ‖q‖ + err_q. Dot's float32 result exceeds the real q·x by
// at most (d/4+3)·2⁻²⁴·‖q‖·‖x‖, and evaluating the bound in float32 (and
// from float32 norms) adds a few more ulps of the same product; normCoef
// adds slack = (d+64)·2⁻²⁴·‖q‖, over twice all of that, to err_q. A row
// is then pruned only when its bound is below tau − boundMargin, so every
// row whose Dot reaches tau is scored, at any vector scale.
type q8Probe struct {
	code     []int16 // q̂, widened for vecmath.ScanQ8
	scale    float32 // s_q
	norm     float32 // ‖q‖
	normCoef float32 // err_q + slack: the coefficient of ‖x‖
	errCoef  float32 // ‖q‖ + err_q ≥ ‖q̃‖: the coefficient of err_x
	// dense marks a probe the codes cannot bound: a NaN or ±Inf component
	// (err_q = +Inf), or a width whose code dot could overflow int32.
	dense bool
}

// newQ8Probe quantises vec into code (len(vec) entries).
func newQ8Probe(vec []float32, code []int16) q8Probe {
	d := len(vec)
	if d > vecmath.MaxQ8Dim {
		return q8Probe{dense: true}
	}
	scale, err := vecmath.Quantize(vec, code)
	norm := vecmath.Norm(vec)
	slack := float32(d+64) * 0x1p-24 * norm
	return q8Probe{
		code:     code,
		scale:    scale,
		norm:     norm,
		normCoef: err + slack,
		errCoef:  norm + err,
		dense:    math.IsInf(float64(err), 1),
	}
}

// scan appends the list's hits ≥ tau to hits. Every returned score is
// Dot's, bit-identical to a dense ScanDot of the list.
func (l *ivfList) scan(vec []float32, q *q8Probe, tau float32, sc *scratch, hits []Hit) []Hit {
	rows := len(l.ids)
	if rows == 0 {
		return hits
	}
	thr := tau - boundMargin
	// The codes cannot help when the probe has no usable code, when the
	// bound's terms could overflow (or a row norm is ±Inf), or when tau is
	// so low that no row's score could fall below it.
	reach := q.norm * l.normMax
	if q.dense || !(reach <= q8Range) || thr <= -reach {
		return l.arena.scan(vec, tau, sc, hits)
	}
	surv := l.survivors(q, thr, sc)
	if 2*len(surv) > rows {
		return l.arena.scan(vec, tau, sc, hits)
	}
	for _, i := range surv {
		if s := vecmath.Dot(vec, l.row(int(i))); s >= tau {
			hits = append(hits, Hit{ID: l.ids[i], Score: s})
		}
	}
	return hits
}

// survivors scores the list's codes against q and returns, in
// sc.survivors, the positions of the rows whose bound reaches thr.
func (l *ivfList) survivors(q *q8Probe, thr float32, sc *scratch) []int32 {
	rows := len(l.ids)
	if cap(sc.codeDots) < rows {
		sc.codeDots = make([]int32, rows+rows/2+8)
		sc.survivors = make([]int32, 0, rows+rows/2+8)
	}
	dots := sc.codeDots[:rows]
	vecmath.ScanQ8(q.code, l.codes, dots)
	surv := sc.survivors[:0]
	for i, d := range dots {
		b := q.scale*l.scales[i]*float32(d) + q.normCoef*l.norms[i] + q.errCoef*l.errs[i]
		// Not `b >= thr`: a NaN bound (a NaN row, or 0·Inf) must not prune.
		if !(b < thr) {
			surv = append(surv, int32(i))
		}
	}
	return surv
}
