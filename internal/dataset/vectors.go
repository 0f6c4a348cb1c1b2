package dataset

import (
	"math"
	"math/rand"

	"repro/internal/vecmath"
)

// Synthetic embedding-space corpora for the index benchmarks and the
// loadgen ann scenario: real query embeddings cluster by intent, so the
// generators below place unit vectors around well-separated anchors with
// a dimension-independent cluster tightness.

// RandomUnit draws a uniformly random unit vector.
func RandomUnit(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	if vecmath.Normalize(v) == 0 {
		v[0] = 1
	}
	return v
}

// PerturbUnit returns a unit vector near v: Gaussian noise with TOTAL
// expected norm ≈ spread (per-coordinate σ = spread/√dim), so the
// perturbation magnitude — and the difficulty of telling neighbors
// apart — does not grow with dimensionality.
func PerturbUnit(rng *rand.Rand, v []float32, spread float64) []float32 {
	sigma := spread / math.Sqrt(float64(len(v)))
	out := vecmath.Clone(v)
	for i := range out {
		out[i] += float32(rng.NormFloat64() * sigma)
	}
	if vecmath.Normalize(out) == 0 {
		out[0] = 1
	}
	return out
}

// ClusteredVectors generates n unit vectors around nc random anchors
// (round-robin assignment), each perturbed with total noise norm ≈
// spread. This is the geometry IVF's k-means is designed for.
func ClusteredVectors(rng *rand.Rand, n, nc, dim int, spread float64) [][]float32 {
	if nc < 1 {
		nc = 1
	}
	anchors := make([][]float32, nc)
	for i := range anchors {
		anchors[i] = RandomUnit(rng, dim)
	}
	out := make([][]float32, n)
	for i := range out {
		out[i] = PerturbUnit(rng, anchors[i%nc], spread)
	}
	return out
}
