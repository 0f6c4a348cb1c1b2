package index

import "repro/internal/vecmath"

// arena is a dense row store: ids and row-major vectors, parallel. Rows
// append at the end and swap-delete on removal, so the live rows are
// always the first len(ids) rows and a scan is one linear pass. Flat is
// an arena whose vectors are on the Go heap; every IVF list is an arena
// plus its int8 code columns, its vectors and codes in an anonymous
// mapping outside the heap (see ivfList.grow).
type arena struct {
	dim  int
	ids  []int
	vecs []float32 // row-major, len(ids) × dim
}

// arenaFirstBytes sizes an arena's first allocation: the largest power
// of two of rows that fits it (16 rows at 768-d), at least one. Each
// later growth adds a quarter of the rows held, but never fewer than
// that first allocation: a 32-row 768-d tenant allocates 16 + 32 rows
// in all, and a large arena holds at most ~25% spare rows.
const arenaFirstBytes = 64 << 10

// firstRows is the row count of an arena's first allocation.
func (a *arena) firstRows() int {
	rows := 1
	for 2*rows*4*a.dim <= arenaFirstBytes {
		rows *= 2
	}
	return rows
}

// full reports whether the next add must grow the arena.
func (a *arena) full() bool { return len(a.vecs)+a.dim > cap(a.vecs) }

// grownRows is the row capacity a full arena grows to.
func (a *arena) grownRows() int {
	n := len(a.ids)
	return n + max(n/4, a.firstRows())
}

// add appends a row. vec is copied.
func (a *arena) add(id int, vec []float32) {
	if a.full() {
		rows := a.grownRows()
		a.ids = withCap(a.ids, rows)
		a.vecs = withCap(a.vecs, rows*a.dim)
	}
	a.ids = append(a.ids, id)
	a.vecs = append(a.vecs, vec...)
}

// withCap returns s, copied into a new backing array of capacity c when
// it holds less.
func withCap[T any](s []T, c int) []T {
	if cap(s) >= c {
		return s
	}
	out := make([]T, len(s), c)
	copy(out, s)
	return out
}

// row returns row i, a view into the arena.
func (a *arena) row(i int) []float32 { return a.vecs[i*a.dim : (i+1)*a.dim] }

// rows appends each live row's ID and a view of its vector to dst, in
// arena order.
func (a *arena) rows(dst []idRow) []idRow {
	for i, id := range a.ids {
		dst = append(dst, idRow{id: id, vec: a.row(i)})
	}
	return dst
}

// swapDelete removes row i, moving the last row into its place. It
// returns the id that moved into position i, and whether a move
// happened, so the caller can fix its position map. The vacated tail
// row is zeroed so the removed vector is not reachable through the
// backing array.
func (a *arena) swapDelete(i int) (movedID int, moved bool) {
	last := len(a.ids) - 1
	if i != last {
		a.ids[i] = a.ids[last]
		copy(a.row(i), a.row(last))
		movedID, moved = a.ids[i], true
	}
	vecmath.Zero(a.row(last))
	a.ids = a.ids[:last]
	a.vecs = a.vecs[:last*a.dim]
	return movedID, moved
}

// scan appends the rows scoring ≥ tau to hits, scoring every row with
// one vecmath.ScanDot pass into sc.rowScores. ScanDot's scores are
// bit-identical to Dot's.
func (a *arena) scan(vec []float32, tau float32, sc *scratch, hits []Hit) []Hit {
	rows := len(a.ids)
	if cap(sc.rowScores) < rows {
		sc.rowScores = make([]float32, rows+rows/2+8)
	}
	out := sc.rowScores[:rows]
	vecmath.ScanDot(vec, a.vecs, out)
	for i, s := range out {
		if s >= tau {
			hits = append(hits, Hit{ID: a.ids[i], Score: s})
		}
	}
	return hits
}

// scratch is the pooled per-search working set of Flat and IVF: one
// score per scanned row and the candidate hit list, plus what only IVF
// uses — centroid scores, the ranked probe selection, the probe's int16
// code, per-row code dots and the surviving row positions. Pooling it
// makes a warmed SearchAppend allocation-free.
type scratch struct {
	rowScores []float32
	hits      []Hit

	scores    []float32
	probes    []int
	code      []int16
	codeDots  []int32
	survivors []int32
}
