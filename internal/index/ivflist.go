package index

import (
	"math"
	"slices"

	"repro/internal/vecmath"
)

// ivfList is one inverted list: ids, row-major vectors and norms, all
// parallel, plus each row's int8 code (row-major, len(ids) × dim), its
// scale and its quantisation error bound from vecmath.Quantize. Rows
// append densely and swap-delete on removal, so a scan is one linear pass
// over the codes.
type ivfList struct {
	ids     []int
	vecs    []float32
	norms   []float32
	codes   []int8
	scales  []float32
	errs    []float32
	normMax float32 // ≥ max(norms) over finite norms; stale-high after removals (safe)
}

// add appends a row, quantising it.
func (l *ivfList) add(id int, vec []float32) {
	dim := len(vec)
	n := len(l.ids)
	l.ids = append(l.ids, id)
	l.vecs = append(l.vecs, vec...)
	norm := vecmath.Norm(vec)
	l.norms = append(l.norms, norm)
	if norm > l.normMax { // not for a NaN norm: that row's err is +Inf
		l.normMax = norm
	}
	l.codes = slices.Grow(l.codes, dim)[:(n+1)*dim]
	scale, err := vecmath.Quantize(vec, l.codes[n*dim:])
	l.scales = append(l.scales, scale)
	l.errs = append(l.errs, err)
}

// swapDelete removes row i, moving the last row into its place. It
// returns the id that moved into position i (and whether a move
// happened) so the caller can fix its position map. The vacated tail row
// and its code are zeroed so the removed vector is not reachable through
// the backing arrays.
func (l *ivfList) swapDelete(i, dim int) (movedID int, moved bool) {
	last := len(l.ids) - 1
	if i != last {
		l.ids[i] = l.ids[last]
		copy(l.vecs[i*dim:(i+1)*dim], l.vecs[last*dim:(last+1)*dim])
		copy(l.codes[i*dim:(i+1)*dim], l.codes[last*dim:(last+1)*dim])
		l.norms[i] = l.norms[last]
		l.scales[i] = l.scales[last]
		l.errs[i] = l.errs[last]
		movedID, moved = l.ids[i], true
	}
	vecmath.Zero(l.vecs[last*dim : (last+1)*dim])
	clear(l.codes[last*dim : (last+1)*dim])
	l.ids = l.ids[:last]
	l.vecs = l.vecs[:last*dim]
	l.codes = l.codes[:last*dim]
	l.norms = l.norms[:last]
	l.scales = l.scales[:last]
	l.errs = l.errs[:last]
	return movedID, moved
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
func (l *ivfList) scan(vec []float32, q *q8Probe, tau float32, sc *ivfScratch, hits []Hit) []Hit {
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
		return l.scanDense(vec, tau, sc, hits)
	}
	surv := l.survivors(q, thr, sc)
	if 2*len(surv) > rows {
		return l.scanDense(vec, tau, sc, hits)
	}
	dim := len(vec)
	for _, i := range surv {
		if s := vecmath.Dot(vec, l.vecs[int(i)*dim:(int(i)+1)*dim]); s >= tau {
			hits = append(hits, Hit{ID: l.ids[i], Score: s})
		}
	}
	return hits
}

// survivors scores the list's codes against q and returns, in
// sc.survivors, the positions of the rows whose bound reaches thr.
func (l *ivfList) survivors(q *q8Probe, thr float32, sc *ivfScratch) []int32 {
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

// scanDense scores every row with one ScanDot pass.
func (l *ivfList) scanDense(vec []float32, tau float32, sc *ivfScratch, hits []Hit) []Hit {
	rows := len(l.ids)
	if cap(sc.list) < rows {
		sc.list = make([]float32, rows+rows/2+8)
	}
	out := sc.list[:rows]
	vecmath.ScanDot(vec, l.vecs, out)
	for i, s := range out {
		if s >= tau {
			hits = append(hits, Hit{ID: l.ids[i], Score: s})
		}
	}
	return hits
}
