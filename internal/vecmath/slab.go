package vecmath

import "fmt"

// SlabChunkRows is the most rows a slab chunk holds. Chunks are allocated
// whole, so rows never move once written: a Row view stays valid for the
// lifetime of its slot, and growth never copies vector data. A chunk is
// sized by bytes, not rows: the largest power of two of rows that fits
// slabChunkBytes, at most SlabChunkRows and at least 2 (the scan kernels
// score rows in pairs). That is 256 rows up to 64-d and 16 rows (48 KB)
// at 768-d — large enough to stream, small enough that a sparsely used
// slab wastes little: a serving tenant's Flat index holds ≈20 leader
// rows, and a 256-row chunk at 768-d cost every activation 786 KB.
const (
	SlabChunkRows  = 256
	slabChunkBytes = 64 << 10
)

// chunkShiftFor returns log2 of the rows per chunk for dim-d rows.
func chunkShiftFor(dim int) uint {
	shift := uint(8) // log2(SlabChunkRows)
	for shift > 1 && (4*dim)<<shift > slabChunkBytes {
		shift--
	}
	return shift
}

// Slab is a contiguous row-major float32 arena with free-slot recycling
// and precomputed row norms — the storage layout behind the index
// packages' vector stores. Rows live in fixed-size chunks, so
//
//   - a chunk is scanned linearly by the blocked kernels (ScanDot),
//   - row addresses are stable (growth allocates a new chunk, it never
//     reallocates existing ones), and
//   - Free recycles a slot for a later Put instead of compacting, so
//     heavy Add/Remove churn performs zero steady-state allocation.
//
// Freed rows are zeroed immediately: a stale vector must not remain
// readable through the arena (aliasing hygiene), and a zero row scores 0
// in the scan kernels, below any meaningful threshold.
//
// Slab does no locking; callers synchronise (the index types wrap it in
// their own RWMutex).
type Slab struct {
	dim    int
	shift  uint        // log2 of the rows per chunk, fixed at NewSlab
	chunks [][]float32 // each ChunkRows()×dim, allocated on demand
	norms  []float32   // per-slot L2 norm, precomputed at Put
	free   []int32     // freed slots awaiting reuse
	next   int32       // first never-used slot
	live   int
}

// NewSlab creates an empty arena for dim-dimensional rows.
func NewSlab(dim int) *Slab {
	if dim <= 0 {
		panic("vecmath: Slab dim must be positive")
	}
	return &Slab{dim: dim, shift: chunkShiftFor(dim)}
}

// Dim reports the row dimensionality.
func (s *Slab) Dim() int { return s.dim }

// ChunkRows reports how many rows each of this slab's chunks holds (a
// power of two; see SlabChunkRows). Slot s lives in chunk s/ChunkRows().
func (s *Slab) ChunkRows() int { return 1 << s.shift }

// Len reports the number of live rows.
func (s *Slab) Len() int { return s.live }

// Slots reports the slot-address upper bound: every live slot is in
// [0, Slots()). Scan buffers are sized to this.
func (s *Slab) Slots() int { return int(s.next) }

// Put copies vec into a recycled slot when one is free (appending into a
// fresh chunk otherwise) and returns the slot. The row's L2 norm is
// precomputed here so insert-time geometry (e.g. distance-to-pivot
// bookkeeping) never rescans the data.
func (s *Slab) Put(vec []float32) int32 {
	if len(vec) != s.dim {
		panic(fmt.Sprintf("vecmath: Slab.Put dim %d, want %d", len(vec), s.dim))
	}
	var slot int32
	if k := len(s.free); k > 0 {
		slot = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		slot = s.next
		s.next++
		if int(slot)>>s.shift >= len(s.chunks) {
			s.chunks = append(s.chunks, make([]float32, s.dim<<s.shift))
		}
		s.norms = append(s.norms, 0)
	}
	copy(s.Row(slot), vec)
	s.norms[slot] = Norm(vec)
	s.live++
	return slot
}

// Free zeroes the slot's row and recycles it for a later Put. Freeing an
// already-free slot corrupts the free list; callers guard against it
// (the index types only Free slots they own).
func (s *Slab) Free(slot int32) {
	Zero(s.Row(slot))
	s.norms[slot] = 0
	s.free = append(s.free, slot)
	s.live--
}

// Row returns the slot's row as a view into the arena. The view is valid
// until the slot is freed; a freed-and-reused slot aliases the new row,
// which is why Free zeroes eagerly and callers must not retain views
// past Free.
func (s *Slab) Row(slot int32) []float32 {
	c := int(slot) >> s.shift
	r := int(slot) & (1<<s.shift - 1)
	return s.chunks[c][r*s.dim : (r+1)*s.dim]
}

// Norm returns the slot's precomputed L2 norm (0 for freed slots).
func (s *Slab) Norm(slot int32) float32 { return s.norms[slot] }

// Chunk exposes chunk c's backing array (ChunkRows()×Dim, rows beyond
// Slots() zero) for callers that stream the arena with their own kernel
// calls, e.g. the multi-probe scan.
func (s *Slab) Chunk(c int) []float32 { return s.chunks[c] }

// ScanDot computes out[slot] = Dot(probe, row(slot)) for every slot in
// [0, Slots()), one blocked-kernel pass per chunk. Freed slots are zero
// rows and score 0. out must have at least Slots() elements; it is not
// allocated here, so a warmed caller runs allocation-free.
func (s *Slab) ScanDot(probe []float32, out []float32) {
	if len(probe) != s.dim {
		panic(fmt.Sprintf("vecmath: Slab.ScanDot dim %d, want %d", len(probe), s.dim))
	}
	n := int(s.next)
	if len(out) < n {
		panic(fmt.Sprintf("vecmath: Slab.ScanDot out len %d, need %d", len(out), n))
	}
	per := s.ChunkRows()
	for base := 0; base < n; base += per {
		rows := min(per, n-base)
		ScanDot(probe, s.chunks[base>>s.shift][:rows*s.dim], out[base:base+rows])
	}
}
