// Largescale: semantic search beyond user-side cache sizes.
//
// §III-B notes the semantic search must scale toward a million cached
// entries. This example indexes 100,000 PCA-compressed embeddings three
// ways — the exact parallel flat scan, a hand-sized IVF inverted-file
// index, and the Adaptive index every tenant's cache runs on, which
// promotes to IVF and rebuilds it as the corpus grows — and compares
// search latency and top-1 agreement with the exact scan.
//
// Run with: go run ./examples/largescale
package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/index"
)

func main() {
	const (
		n   = 100_000
		dim = 64 // PCA-compressed dimensionality (§III-A.4)
	)
	fmt.Printf("generating %d compressed embeddings (%d-d)...\n", n, dim)
	rng := rand.New(rand.NewSource(1))
	// Clustered geometry, as real query embeddings are: topics form lobes
	// (dataset.ClusteredVectors scales noise by 1/√dim so cluster
	// tightness matches embedding space regardless of the compression
	// dimension).
	vecs := dataset.ClusteredVectors(rng, n, 256, dim, 0.35)

	indexes := []struct {
		name string
		idx  index.Index
	}{
		{"flat (exact)", index.NewFlat(dim)},
		{"ivf (nprobe=16)", index.NewIVF(dim, index.IVFConfig{NList: 317, NProbe: 16, Seed: 2})},
		{"adaptive (shipped)", index.NewAdaptive(dim, index.AdaptiveConfig{})},
	}
	for _, e := range indexes {
		start := time.Now()
		for i, v := range vecs {
			e.idx.Add(i, v)
		}
		switch idx := e.idx.(type) {
		case *index.IVF:
			idx.Train() // re-cluster on the full corpus, not the bootstrap sample
		case *index.Adaptive:
			idx.WaitMigration() // let the last background build land
		}
		fmt.Printf("built %-18s in %v\n", e.name, time.Since(start).Round(time.Millisecond))
	}

	const probes = 200
	times := make([]time.Duration, len(indexes))
	agree := make([]int, len(indexes))
	for q := 0; q < probes; q++ {
		probe := dataset.PerturbUnit(rng, vecs[rng.Intn(n)], 0.2)

		var exact []index.Hit
		for i, e := range indexes {
			start := time.Now()
			hits := e.idx.Search(probe, 1, 0.5)
			times[i] += time.Since(start)
			if i == 0 {
				exact = hits
				agree[0]++
				continue
			}
			// Agreement: same top-1, or both (correctly) empty.
			if len(exact) == 0 && len(hits) == 0 ||
				len(exact) == 1 && len(hits) == 1 && exact[0].ID == hits[0].ID {
				agree[i]++
			}
		}
	}

	fmt.Printf("\n%-18s %14s %10s %10s\n", "index", "search/query", "top-1", "speedup")
	for i, e := range indexes {
		fmt.Printf("%-18s %14v %7d/%d %9.1fx\n",
			e.name, (times[i] / probes).Round(time.Microsecond),
			agree[i], probes, float64(times[0])/float64(times[i]))
	}
}
