package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/metrics"
)

// The ann scenario measures the index a large tenant serves from
// directly — no server in the loop, because at hundreds of thousands of
// entries the encode and HTTP costs would drown the quantity under test.
// It builds a clustered synthetic corpus, indexes it under the exact
// Flat scan and under the Adaptive index core.New gives every tenant
// (zero config, so its threshold of index.DefaultFlatMax, its promotion
// to IVF and every regrowth are the shipped ones), and reports build
// time, search latency percentiles and recall@k against the exact Flat
// ground truth. Each tier build runs inside the Add that crosses its
// threshold, so the reported build time includes all of them: at annN
// rows the promotion and three regrowths, the last from 65,621 rows.
//
// Gate: Adaptive ≥ 5× Flat at recall@10 ≥ 0.95 on the annN-vector corpus.
const (
	annN          = 200000
	annClusters   = 256
	annDim        = 64
	annK          = 10
	annMinSpeedup = 5.0
	annMinRecall  = 0.95
)

// annIndex is one measured implementation.
type annIndex struct {
	name string
	idx  index.Index

	lat   metrics.LatencyRecorder
	inter int // results shared with the Flat ground truth
}

func runANN(e env) ([]gate, error) {
	rng := rand.New(rand.NewSource(e.seed))
	fmt.Printf("=== ann scenario: %d vectors × %d dims, %d queries, k=%d ===\n",
		annN, annDim, e.annQueries, annK)

	// Clustered corpus — the geometry IVF's k-means is built for, and
	// what real query embeddings look like (intents form clusters).
	corpus := dataset.ClusteredVectors(rng, annN, annClusters, annDim, 0.35)
	// Queries perturb random corpus points: near-duplicate probes, the
	// semantic-cache access pattern.
	queries := make([][]float32, e.annQueries)
	for i := range queries {
		queries[i] = dataset.PerturbUnit(rng, corpus[rng.Intn(len(corpus))], 0.2)
	}

	adaptive := &annIndex{name: "adaptive", idx: index.NewAdaptive(annDim, index.AdaptiveConfig{})}
	runs := []*annIndex{{name: "flat", idx: index.NewFlat(annDim)}, adaptive}
	for _, r := range runs {
		start := time.Now()
		for id, v := range corpus {
			if err := r.idx.Add(id, v); err != nil {
				return nil, fmt.Errorf("%s add: %w", r.name, err)
			}
		}
		fmt.Printf("built %-8s %8d entries in %v\n", r.name, r.idx.Len(), time.Since(start).Round(time.Millisecond))
	}

	// Warm up, then measure each index on every query. The timed flat
	// search (first in runs) doubles as the ground truth for that query,
	// so the exact scan — the most expensive index here — runs exactly
	// once per probe.
	for _, r := range runs {
		r.idx.Search(queries[0], annK, -1)
	}
	truthTotal := 0
	for _, q := range queries {
		truthIDs := map[int]bool{}
		for i, r := range runs {
			start := time.Now()
			hits := r.idx.Search(q, annK, -1)
			r.lat.Record(time.Since(start))
			for _, h := range hits {
				if i == 0 {
					truthIDs[h.ID] = true
				}
				if truthIDs[h.ID] {
					r.inter++
				}
			}
		}
		truthTotal += len(truthIDs)
	}

	flatMean := runs[0].lat.Mean()
	recall := func(r *annIndex) float64 { return float64(r.inter) / float64(max(truthTotal, 1)) }
	speedup := func(r *annIndex) float64 { return float64(flatMean) / float64(r.lat.Mean()) }
	fmt.Printf("\n%-8s %10s %10s %10s %10s %9s %9s\n",
		"index", "mean", "p50", "p99", "qps", "recall@k", "speedup")
	for _, r := range runs {
		mean := r.lat.Mean()
		fmt.Printf("%-8s %10v %10v %10v %10.0f %9.3f %8.1fx\n",
			r.name,
			mean.Round(time.Microsecond),
			r.lat.Percentile(50).Round(time.Microsecond),
			r.lat.Percentile(99).Round(time.Microsecond),
			1/mean.Seconds(), recall(r), speedup(r))
	}

	return []gate{
		check("acceptance (adaptive)", recall(adaptive) >= annMinRecall && speedup(adaptive) >= annMinSpeedup,
			"speedup %.1fx (need ≥%.0fx), recall@%d %.3f (need ≥%.2f)",
			speedup(adaptive), annMinSpeedup, annK, recall(adaptive), annMinRecall),
	}, nil
}
