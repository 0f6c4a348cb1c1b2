package quantize

import "fmt"

// slabChunkRows is the rows per code chunk: codes live in fixed-size
// chunks so rows never move and growth never copies. It is a fixed row
// count at every dimension (vecmath.Slab sizes its chunks by bytes
// instead): a code row is dim bytes, so a chunk is 192 KB at 768-d, and
// the only holder is the HNSW tier, whose indexes run to thousands of
// rows.
const slabChunkRows = 256

// Slab is the int8 twin of vecmath.Slab: a contiguous row-major arena of
// quantised codes with per-row scales, slot-addressed so it can sit next
// to any slot-recycling structure (HNSW stores each node's codes at the
// node's graph slot and reuses slots through its own free list). Rows
// are chunked, so views returned by At stay valid until the slot is
// overwritten.
//
// Slab does no locking; callers synchronise.
type Slab struct {
	dim    int
	chunks [][]int8  // each slabChunkRows×dim
	scales []float32 // per-slot reconstruction scale
}

// NewSlab creates an empty code arena for dim-dimensional vectors.
func NewSlab(dim int) *Slab {
	if dim <= 0 {
		panic("quantize: Slab dim must be positive")
	}
	return &Slab{dim: dim}
}

// Dim reports the row dimensionality.
func (s *Slab) Dim() int { return s.dim }

// Slots reports how many slot addresses have been touched.
func (s *Slab) Slots() int { return len(s.scales) }

// SetAt quantises vec into the given slot, growing the arena to cover
// it. Overwriting a slot recycles its row in place — no allocation once
// the chunk exists.
func (s *Slab) SetAt(slot int32, vec []float32) {
	if len(vec) != s.dim {
		panic(fmt.Sprintf("quantize: Slab.SetAt dim %d, want %d", len(vec), s.dim))
	}
	for int(slot)/slabChunkRows >= len(s.chunks) {
		s.chunks = append(s.chunks, make([]int8, slabChunkRows*s.dim))
	}
	for int(slot) >= len(s.scales) {
		s.scales = append(s.scales, 0)
	}
	s.scales[slot] = QuantizeInto(vec, s.row(slot))
}

// At returns the slot's codes as a Vector view sharing the arena. The
// view is valid until the slot is overwritten.
func (s *Slab) At(slot int32) Vector {
	return Vector{Scale: s.scales[slot], Data: s.row(slot)}
}

func (s *Slab) row(slot int32) []int8 {
	c := int(slot) / slabChunkRows
	r := int(slot) % slabChunkRows
	return s.chunks[c][r*s.dim : (r+1)*s.dim]
}

// ScanDotF32 computes out[slot] = DotF32(codes(slot), probe) for every
// touched slot, one blocked pass per chunk — the asymmetric int8 scan
// kernel over the same chunked row-major layout the float32 slab uses.
// It performs no allocation. Scores may differ from per-row DotF32 by
// float rounding (the kernel uses four interleaved accumulators); use it
// for traversal-grade scoring, not for exact-parity paths.
func (s *Slab) ScanDotF32(probe []float32, out []float32) {
	if len(probe) != s.dim {
		panic(fmt.Sprintf("quantize: Slab.ScanDotF32 dim %d, want %d", len(probe), s.dim))
	}
	n := len(s.scales)
	if len(out) < n {
		panic(fmt.Sprintf("quantize: Slab.ScanDotF32 out len %d, need %d", len(out), n))
	}
	for c := 0; c*slabChunkRows < n; c++ {
		rows := n - c*slabChunkRows
		if rows > slabChunkRows {
			rows = slabChunkRows
		}
		base := c * slabChunkRows
		chunk := s.chunks[c]
		for i := 0; i < rows; i++ {
			out[base+i] = dotCodes(probe, chunk[i*s.dim:(i+1)*s.dim]) * s.scales[base+i]
		}
	}
}

// dotCodes is the blocked inner kernel: four interleaved accumulator
// chains over one code row, bounds-check-free.
func dotCodes(p []float32, row []int8) float32 {
	row = row[:len(p)]
	var a0, a1, a2, a3 float32
	j := 0
	for ; j+4 <= len(p); j += 4 {
		a0 += p[j] * float32(row[j])
		a1 += p[j+1] * float32(row[j+1])
		a2 += p[j+2] * float32(row[j+2])
		a3 += p[j+3] * float32(row[j+3])
	}
	for ; j < len(p); j++ {
		a0 += p[j] * float32(row[j])
	}
	return a0 + a1 + a2 + a3
}
