package index

import (
	"math"
	"testing"

	"repro/internal/vecmath"
)

// FuzzSearchParity interprets the fuzz input as an op program run against
// Flat, an Adaptive and a brute-force oracle: Flat must match the oracle
// exactly (IDs, order, scores), and the Adaptive — whose FlatMax of 8
// makes it promote to IVF and regrow inside one program — must uphold
// the result invariants (at most k hits, no duplicate or removed IDs,
// ordered, tau respected, true scores). Run as a smoke in CI
// (-fuzz=FuzzSearchParity -fuzztime=30s) and at will locally.
func FuzzSearchParity(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 128, 64, 32, 16, 8, 4, 2})
	f.Add([]byte{9, 9, 9, 9, 1, 1, 1, 1, 77, 77, 77, 77, 200, 200, 200, 200, 3, 3})
	// 45 adds, past the first regrowth (more than 4 × 9 entries), then
	// five searches.
	var grow []byte
	for i := 0; i < 45; i++ {
		grow = append(grow, 0)
		for j := 0; j < 8; j++ {
			grow = append(grow, byte(i*37+j*101))
		}
	}
	for i := 0; i < 5; i++ {
		grow = append(grow, 3)
		for j := 0; j < 10; j++ {
			grow = append(grow, byte(i*53+j*29))
		}
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, data []byte) {
		const dim = 8
		if len(data) > 512 {
			data = data[:512] // bound per-input work
		}
		flat := NewFlat(dim)
		ada := NewAdaptive(dim, AdaptiveConfig{FlatMax: 8})
		o := newOracle()
		var ids []int
		nextID := 0

		next := func(n int) []byte {
			if len(data) < n {
				return nil
			}
			b := data[:n]
			data = data[n:]
			return b
		}
		vecFrom := func(b []byte) []float32 {
			v := make([]float32, dim)
			for i := range v {
				v[i] = float32(int(b[i])-128) / 128
			}
			if vecmath.Normalize(v) == 0 {
				v[0] = 1
			}
			return v
		}

		for {
			op := next(1)
			if op == nil {
				break
			}
			switch op[0] % 4 {
			case 0, 1: // add
				b := next(dim)
				if b == nil {
					return
				}
				v := vecFrom(b)
				id := nextID
				nextID++
				if err := flat.Add(id, v); err != nil {
					t.Fatalf("flat.Add: %v", err)
				}
				if err := ada.Add(id, v); err != nil {
					t.Fatalf("ada.Add: %v", err)
				}
				o.add(id, v)
				ids = append(ids, id)
			case 2: // remove
				b := next(1)
				if b == nil || len(ids) == 0 {
					return
				}
				i := int(b[0]) % len(ids)
				id := ids[i]
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				flat.Remove(id)
				ada.Remove(id)
				o.remove(id)
			case 3: // search
				b := next(dim + 2)
				if b == nil {
					return
				}
				q := vecFrom(b[:dim])
				k := int(b[dim])%8 + 1
				tau := float32(int(b[dim+1])-128) / 128
				want := o.search(q, k, tau)
				got := flat.Search(q, k, tau)
				if len(got) != len(want) {
					t.Fatalf("flat: %d hits, oracle %d (k=%d tau=%f)", len(got), len(want), k, tau)
				}
				for i := range got {
					if got[i].ID != want[i].ID || absDiff(got[i].Score, want[i].Score) > 1e-5 {
						t.Fatalf("flat hit %d = %+v, oracle %+v", i, got[i], want[i])
					}
				}
				ag := ada.Search(q, k, tau)
				if len(ag) > k {
					t.Fatalf("adaptive: %d hits for k=%d", len(ag), k)
				}
				seen := make(map[int]bool, len(ag))
				for i, h := range ag {
					if seen[h.ID] {
						t.Fatalf("adaptive: duplicate id %d", h.ID)
					}
					seen[h.ID] = true
					if !o.has(h.ID) {
						t.Fatalf("adaptive: removed id %d leaked", h.ID)
					}
					if h.Score < tau {
						t.Fatalf("adaptive: hit %+v below tau %f", h, tau)
					}
					if s := o.score(h.ID, q); absDiff(h.Score, s) > 1e-5 || math.IsNaN(float64(h.Score)) {
						t.Fatalf("adaptive: id %d score %f, true %f", h.ID, h.Score, s)
					}
					if i > 0 && hitBetter(h, ag[i-1]) {
						t.Fatalf("adaptive: unordered %+v before %+v", ag[i-1], h)
					}
				}
			}
		}
		if flat.Len() != len(o.vecs) || ada.Len() != len(o.vecs) {
			t.Fatalf("Len drift: flat %d adaptive %d oracle %d", flat.Len(), ada.Len(), len(o.vecs))
		}
	})
}
