package index

import "repro/internal/vecmath"

// rowArena is the contiguous row store of one of Flat's leader groups:
// ids, row-major vectors, per-row norms and pivot distances
// (‖row − pivot‖ + slack), all parallel. Rows append densely and
// swap-delete on removal, so a scan is one linear pass, and scanBounded
// below is where Flat applies its rigorous tau bound per row. IVF's
// inverted lists (ivfList) bound rows with int8 codes instead.
type rowArena struct {
	ids      []int
	vecs     []float32 // row-major, len(ids) × dim
	norms    []float32
	deltas   []float32
	deltaMax float32 // ≥ max(deltas); stale-high after removals (safe)
}

// add appends a row.
func (a *rowArena) add(id int, vec []float32, norm, delta float32) {
	a.ids = append(a.ids, id)
	a.vecs = append(a.vecs, vec...)
	a.norms = append(a.norms, norm)
	a.deltas = append(a.deltas, delta)
	if delta > a.deltaMax {
		a.deltaMax = delta
	}
}

// swapDelete removes row i, moving the last row into its place. It
// returns the id that moved into position i (and whether a move
// happened) so callers can fix their position maps. The vacated tail
// row is zeroed so the removed vector is not reachable through the
// backing array.
func (a *rowArena) swapDelete(i, dim int) (movedID int, moved bool) {
	last := len(a.ids) - 1
	if i != last {
		a.ids[i] = a.ids[last]
		copy(a.vecs[i*dim:(i+1)*dim], a.vecs[last*dim:(last+1)*dim])
		a.norms[i] = a.norms[last]
		a.deltas[i] = a.deltas[last]
		movedID, moved = a.ids[i], true
	}
	vecmath.Zero(a.vecs[last*dim : (last+1)*dim])
	a.ids = a.ids[:last]
	a.vecs = a.vecs[:last*dim]
	a.norms = a.norms[:last]
	a.deltas = a.deltas[:last]
	return movedID, moved
}

// scanBounded appends the arena's hits ≥ tau to hits under the
// Cauchy–Schwarz pivot bound: the whole arena is skipped when even its
// loosest row cannot reach tau, individual rows are skipped on their
// own distance bound, and surviving dense arenas go through the blocked
// kernel (sparse survivors through individual dots). Every returned
// score is a Dot-ordered product — bit-identical to a brute-force scan.
// scores is the caller's pooled scratch, grown in place as needed.
func (a *rowArena) scanBounded(vec []float32, dim int, pivotDot, pnorm, tau, thr float32, scores *[]float32, hits []Hit) []Hit {
	rows := len(a.ids)
	if rows == 0 || pivotDot+pnorm*a.deltaMax < thr {
		return hits
	}
	survivors := 0
	for _, d := range a.deltas {
		if pivotDot+pnorm*d >= thr {
			survivors++
		}
	}
	if survivors == 0 {
		return hits
	}
	if 2*survivors >= rows {
		// Most rows need scoring: one blocked pass over the whole arena
		// beats per-row calls, and the extra scores are filtered by tau.
		if cap(*scores) < rows {
			*scores = make([]float32, rows+rows/2+8)
		}
		out := (*scores)[:rows]
		vecmath.ScanDot(vec, a.vecs, out)
		for i, s := range out {
			if s >= tau {
				hits = append(hits, Hit{ID: a.ids[i], Score: s})
			}
		}
		return hits
	}
	for i, d := range a.deltas {
		if pivotDot+pnorm*d < thr {
			continue
		}
		if s := vecmath.Dot(vec, a.vecs[i*dim:(i+1)*dim]); s >= tau {
			hits = append(hits, Hit{ID: a.ids[i], Score: s})
		}
	}
	return hits
}
