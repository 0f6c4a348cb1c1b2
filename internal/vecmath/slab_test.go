package vecmath

import (
	"math/rand"
	"testing"
)

func slabRandVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestScanDotMatchesDotExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{1, 3, 4, 7, 16, 64, 768} {
		for _, n := range []int{0, 1, 2, 3, 5, 17, 64} {
			probe := slabRandVec(rng, dim)
			rows := make([]float32, n*dim)
			for i := range rows {
				rows[i] = float32(rng.NormFloat64())
			}
			out := make([]float32, n)
			ScanDot(probe, rows, out)
			for i := 0; i < n; i++ {
				// Bit-exact, not approximately equal: the conformance
				// oracle computes scores with Dot and demands parity.
				if want := Dot(probe, rows[i*dim:(i+1)*dim]); out[i] != want {
					t.Fatalf("dim=%d n=%d row %d: ScanDot %v != Dot %v", dim, n, i, out[i], want)
				}
			}
		}
	}
}

func TestSlabPutFreeRecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSlab(8)
	v1 := slabRandVec(rng, 8)
	v2 := slabRandVec(rng, 8)
	s1 := s.Put(v1)
	s2 := s.Put(v2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if got := s.Norm(s1); got != Norm(v1) {
		t.Fatalf("Norm(slot1) = %v, want %v", got, Norm(v1))
	}
	s.Free(s1)
	if s.Len() != 1 {
		t.Fatalf("Len after Free = %d", s.Len())
	}
	// A freed row must read as zero — no stale vector through the arena.
	for _, x := range s.Row(s1) {
		if x != 0 {
			t.Fatalf("freed row not zeroed: %v", s.Row(s1))
		}
	}
	// The freed slot is recycled before any new slot is minted.
	v3 := slabRandVec(rng, 8)
	s3 := s.Put(v3)
	if s3 != s1 {
		t.Fatalf("Put after Free used slot %d, want recycled slot %d", s3, s1)
	}
	if s.Slots() != 2 {
		t.Fatalf("Slots = %d, want 2 (no growth through recycling)", s.Slots())
	}
	// The recycled row holds the new vector, not the old one.
	for i, x := range s.Row(s3) {
		if x != v3[i] {
			t.Fatalf("recycled row differs at %d: %v != %v", i, x, v3[i])
		}
	}
	if got := s.Row(s2); Dot(got, v2) != Dot(v2, v2) {
		t.Fatal("unrelated slot disturbed by recycling")
	}
}

func TestSlabRowsStableAcrossGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := NewSlab(4)
	first := s.Put(slabRandVec(rng, 4))
	view := s.Row(first)
	want := Clone(view)
	// Grow well past several chunk boundaries; the early view must stay
	// valid and untouched (chunked storage never reallocates rows).
	for i := 0; i < SlabChunkRows*3; i++ {
		s.Put(slabRandVec(rng, 4))
	}
	for i := range view {
		if view[i] != want[i] {
			t.Fatalf("row view invalidated by growth at %d", i)
		}
	}
}

func TestSlabScanDot(t *testing.T) {
	// 16-d chunks hold SlabChunkRows rows, 768-d chunks 16: both cases
	// span a chunk boundary with a partly filled last chunk.
	for _, dim := range []int{16, 768} {
		rng := rand.New(rand.NewSource(5))
		s := NewSlab(dim)
		var slots []int32
		var vecs [][]float32
		for i := 0; i < s.chunkRows()+40; i++ {
			v := slabRandVec(rng, dim)
			slots = append(slots, s.Put(v))
			vecs = append(vecs, v)
		}
		s.Free(slots[7])
		probe := slabRandVec(rng, dim)
		out := make([]float32, s.Slots())
		s.ScanDot(probe, out)
		for i, slot := range slots {
			if i == 7 {
				if out[slot] != 0 {
					t.Fatalf("dim %d: freed slot scored %v, want 0", dim, out[slot])
				}
				continue
			}
			if want := Dot(probe, vecs[i]); out[slot] != want {
				t.Fatalf("dim %d slot %d: %v != %v", dim, slot, out[slot], want)
			}
			if got := s.Row(slot); &got[0] != &s.chunks[int(slot)/s.chunkRows()][int(slot)%s.chunkRows()*dim] {
				t.Fatalf("dim %d slot %d: Row is not at slot/ChunkRows, slot%%ChunkRows", dim, slot)
			}
		}
	}
}

// TestSlabChunkSizedByBytes pins the chunk size rule: ≈64 KB of rows, a
// power of two between 2 and SlabChunkRows. Up to 64-d that is 256
// rows, the layout the 64-d benchmarks (BenchmarkScanDot64x20k,
// BenchmarkLargeCacheSearch) have always run on; at the serving dimension
// (768) it is 16 rows, so an index with a handful of rows does not pay
// for 256.
func TestSlabChunkSizedByBytes(t *testing.T) {
	for _, tc := range []struct{ dim, rows int }{
		{1, 256}, {16, 256}, {64, 256}, {65, 128}, {128, 128}, {384, 32}, {768, 16}, {1024, 16}, {1 << 16, 2},
	} {
		s := NewSlab(tc.dim)
		if got := s.chunkRows(); got != tc.rows {
			t.Errorf("dim %d: %d rows per chunk, want %d", tc.dim, got, tc.rows)
		}
		s.Put(make([]float32, tc.dim))
		if got := len(s.chunks[0]); got != tc.rows*tc.dim {
			t.Errorf("dim %d: chunk holds %d floats, want %d", tc.dim, got, tc.rows*tc.dim)
		}
	}
}

// TestScanKernelsZeroAlloc is the allocation gate for the scan kernels:
// after warmup they must not allocate at all.
func TestScanKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	probe := slabRandVec(rng, 64)
	rows := make([]float32, 100*64)
	out := make([]float32, 100)
	if n := testing.AllocsPerRun(50, func() { ScanDot(probe, rows, out) }); n != 0 {
		t.Fatalf("ScanDot allocates %v per run, want 0", n)
	}
	s := NewSlab(64)
	for i := 0; i < 300; i++ {
		s.Put(rows[i*10 : i*10+64])
	}
	sout := make([]float32, s.Slots())
	if n := testing.AllocsPerRun(50, func() { s.ScanDot(probe, sout) }); n != 0 {
		t.Fatalf("Slab.ScanDot allocates %v per run, want 0", n)
	}
}

func BenchmarkScanDot64x20k(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	probe := slabRandVec(rng, 64)
	rows := make([]float32, 20000*64)
	for i := range rows {
		rows[i] = float32(rng.NormFloat64())
	}
	out := make([]float32, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanDot(probe, rows, out)
	}
}
