package index

import (
	"math"
	"testing"

	"repro/internal/vecmath"
)

// FuzzSearchParity interprets the fuzz input as an op program run against
// Flat, HNSW and a brute-force oracle: Flat must match the oracle
// exactly (IDs, order, scores), HNSW must uphold the result invariants
// (no removed IDs, ordered, tau respected, true scores). Run as a smoke
// in CI (-fuzz=FuzzSearchParity -fuzztime=30s) and at will locally.
func FuzzSearchParity(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 128, 64, 32, 16, 8, 4, 2})
	f.Add([]byte{9, 9, 9, 9, 1, 1, 1, 1, 77, 77, 77, 77, 200, 200, 200, 200, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const dim = 8
		if len(data) > 512 {
			data = data[:512] // bound per-input work
		}
		flat := NewFlat(dim)
		hnsw := NewHNSW(dim, HNSWConfig{M: 4, EfConstruction: 20, EfSearch: 24, Seed: 9})
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
				if err := hnsw.Add(id, v); err != nil {
					t.Fatalf("hnsw.Add: %v", err)
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
				hnsw.Remove(id)
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
				hg := hnsw.Search(q, k, tau)
				if len(hg) > k {
					t.Fatalf("hnsw: %d hits for k=%d", len(hg), k)
				}
				seen := make(map[int]bool, len(hg))
				for i, h := range hg {
					if seen[h.ID] {
						t.Fatalf("hnsw: duplicate id %d", h.ID)
					}
					seen[h.ID] = true
					if !o.has(h.ID) {
						t.Fatalf("hnsw: removed id %d leaked", h.ID)
					}
					if h.Score < tau {
						t.Fatalf("hnsw: hit %+v below tau %f", h, tau)
					}
					if s := o.score(h.ID, q); absDiff(h.Score, s) > 1e-5 || math.IsNaN(float64(h.Score)) {
						t.Fatalf("hnsw: id %d score %f, true %f", h.ID, h.Score, s)
					}
					if i > 0 && hitBetter(h, hg[i-1]) {
						t.Fatalf("hnsw: unordered %+v before %+v", hg[i-1], h)
					}
				}
			}
		}
		if flat.Len() != len(o.vecs) || hnsw.Len() != len(o.vecs) {
			t.Fatalf("Len drift: flat %d hnsw %d oracle %d", flat.Len(), hnsw.Len(), len(o.vecs))
		}
	})
}
