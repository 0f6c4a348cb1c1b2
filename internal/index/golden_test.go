package index

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// TestGoldenRecall pins recall@10 on a fixed-seed corpus for every
// approximate configuration, so a parameter regression (a mis-sized
// nlist, a skewed training sample, a mis-tuned nprobe) fails loudly here
// instead of silently degrading the serving hit ratio.
//
// The floors are the measured recall minus a 0.02 safety margin. If a
// deliberate change improves recall, re-measure (go test -run GoldenRecall
// -v prints the observed values) and raise the floors; never lower a
// floor to make a regression pass.
func TestGoldenRecall(t *testing.T) {
	const (
		n       = 4000
		dim     = 32
		queries = 200
		k       = 10
		seed    = 1234
	)
	golden := []struct {
		name   string
		build  func() Index
		tier   string  // where an Adaptive must have stopped
		settle bool    // wait out a promotion before the next Add
		golden float64 // measured recall@10 at the pinned seed
	}{
		{
			name:   "ivf-nlist64-nprobe8",
			build:  func() Index { return NewIVF(dim, IVFConfig{NList: 64, NProbe: 8, Seed: seed}) },
			golden: 0.831,
		},
		{
			// A tenant far past its first promotion: FlatMax 500 promotes
			// at 501 rows and regrows at 2,005 into a 90-list IVF, which
			// trains on all of them (32 per list would be 2,880).
			// Settled, so each build sees exactly those rows.
			name:   "adaptive-regrown",
			build:  func() Index { return NewAdaptive(dim, AdaptiveConfig{FlatMax: 500}) },
			tier:   "ivf",
			settle: true,
			golden: 0.850,
		},
		{
			// What a serving tenant runs once it outgrows the exact scan:
			// every parameter the package default, FlatMax forced to the
			// 1024 a 768-d tenant gets so 4000 rows stop on the IVF tier.
			// Settled, so the tier trains on exactly the first 1025 rows:
			// a load racing the promotion trains it on a prefix of
			// whatever Flat held by then, in leader-group order.
			name:   "default-ivf-tier",
			build:  func() Index { return NewAdaptive(dim, AdaptiveConfig{FlatMax: 1024}) },
			tier:   "ivf",
			settle: true,
			golden: 0.823,
		},
	}

	// Overlapping clusters (total noise norm ~0.9) make the neighbor
	// problem genuinely hard, so the measured recalls sit below 1.0 and
	// parameter regressions move them.
	rng := rand.New(rand.NewSource(seed))
	anchors := makeAnchors(rng, 256, dim)
	loose := func() []float32 {
		return dataset.PerturbUnit(rng, anchors[rng.Intn(len(anchors))], 0.9)
	}
	corpus := make([][]float32, n)
	for i := range corpus {
		corpus[i] = loose()
	}
	probes := make([][]float32, queries)
	for i := range probes {
		probes[i] = loose()
	}
	truth := NewFlat(dim)
	for i, v := range corpus {
		truth.Add(i, v)
	}

	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			idx := g.build()
			for i, v := range corpus {
				if err := idx.Add(i, v); err != nil {
					t.Fatal(err)
				}
				if g.settle {
					idx.(*Adaptive).WaitMigration()
				}
			}
			if ivf, ok := idx.(*IVF); ok && !ivf.Trained() {
				ivf.Train()
			}
			if a, ok := idx.(*Adaptive); ok {
				a.WaitMigration()
				if tier := a.Tier(); tier != g.tier {
					t.Fatalf("adaptive on tier %s, want %s", tier, g.tier)
				}
			}
			recall := recallAtK(idx, truth, probes, k)
			t.Logf("%s recall@%d = %.3f (golden %.3f)", g.name, k, recall, g.golden)
			if recall < g.golden-0.02 {
				t.Fatalf("%s: recall@%d %.3f regressed below golden %.3f − 0.02", g.name, k, recall, g.golden)
			}
		})
	}
}

// recallAtK is the share of truth's top-k that idx also returns, over
// all probes.
func recallAtK(idx, truth Index, probes [][]float32, k int) float64 {
	var inter, total int
	for _, q := range probes {
		in := make(map[int]bool, k)
		for _, h := range idx.Search(q, k, -1) {
			in[h.ID] = true
		}
		for _, h := range truth.Search(q, k, -1) {
			total++
			if in[h.ID] {
				inter++
			}
		}
	}
	return float64(inter) / float64(total)
}

// TestGoldenRecallUnderChurn pins what the shipped IVF tier does when
// the corpus it was trained on is gone: the tier trains once, on the
// first FlatMax rows, and never retrains. A capacity-bounded corpus
// (FIFO, as a full tenant cache behaves) turns over four times while
// its topics drift: entries draw from a 64-anchor window that slides
// over 384 anchors, so by the end no live row belongs to a cluster the
// centroids were fitted to. Probes are near-duplicates of live rows,
// the serving workload's shape. Same floor rule as TestGoldenRecall.
func TestGoldenRecallUnderChurn(t *testing.T) {
	const (
		dim      = 32
		capacity = 2048
		flatMax  = 1024
		window   = 64
		turns    = 4
		queries  = 200
		k        = 10
		seed     = 4321
		golden   = 0.684 // measured recall@10 after the churn (0.921 before it)
	)
	rng := rand.New(rand.NewSource(seed))
	anchors := makeAnchors(rng, window*(turns+2), dim)
	idx := NewAdaptive(dim, AdaptiveConfig{FlatMax: flatMax})
	truth := NewFlat(dim)
	live := make(map[int][]float32, capacity)
	add := func(id int) {
		first := id * window / capacity // slides one window per turnover
		v := dataset.PerturbUnit(rng, anchors[first+rng.Intn(window)], 0.9)
		if err := idx.Add(id, v); err != nil {
			t.Fatal(err)
		}
		truth.Add(id, v)
		live[id] = v
	}
	recall := func() float64 {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		probes := make([][]float32, queries)
		for i := range probes {
			probes[i] = dataset.PerturbUnit(rng, live[ids[rng.Intn(len(ids))]], 0.2)
		}
		return recallAtK(idx, truth, probes, k)
	}

	for id := 0; id < capacity; id++ {
		add(id)
		if id == flatMax {
			idx.WaitMigration() // train on exactly the first flatMax+1 rows
		}
	}
	if tier := idx.Tier(); tier != "ivf" {
		t.Fatalf("filled to capacity on tier %s, want ivf", tier)
	}
	fresh := recall()
	for id := capacity; id < (turns+1)*capacity; id++ {
		idx.Remove(id - capacity)
		truth.Remove(id - capacity)
		delete(live, id-capacity)
		add(id)
	}
	if tier := idx.Tier(); tier != "ivf" || idx.Len() != capacity {
		t.Fatalf("after churn: tier %s len %d, want ivf %d", tier, idx.Len(), capacity)
	}
	churned := recall()
	t.Logf("recall@%d: %.3f on the trained corpus, %.3f after %d× turnover (golden %.3f)", k, fresh, churned, turns, golden)
	if churned < golden-0.02 {
		t.Fatalf("recall@%d %.3f after churn regressed below golden %.3f − 0.02", k, churned, golden)
	}
}
