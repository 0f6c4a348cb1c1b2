package fl

import (
	"math/rand"

	"repro/internal/vecmath"
)

// Secure aggregation (Bonawitz-style pairwise additive masking, simplified
// to the honest-but-curious setting): each pair of clients (i, j) in a
// round derives a shared mask vector from a pairwise seed; client i adds
// the mask, client j subtracts it. Individual updates reach the server
// statistically indistinguishable from noise, but the masks cancel in
// the sum, so the aggregate equals plain FedAvg up to float rounding.
// The roster is fixed once training ends, as the round's survivors, so a
// dropout never leaves a mask uncancelled; clients that mask before
// dropouts are known would need Bonawitz's secret-shared mask recovery,
// which is not modelled.
//
// This strengthens the paper's privacy story (§III-A): the server learns
// only the aggregated model, never an individual client's fine-tuned
// weights. The seed exchange is abstracted as a PairwiseSeed function —
// in a deployment it would come from a Diffie-Hellman agreement; here it
// is derived from client IDs and the round number, which suffices to
// demonstrate and test the cancellation algebra.

// PairwiseSeed derives the shared mask seed for an unordered client pair
// in a given round.
func PairwiseSeed(roundSeed int64, a, b int) int64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return roundSeed*1_000_003 + int64(lo)*7919 + int64(hi)*104729
}

// maskInto accumulates sign·PRG(seed) into dst. The mask entries are
// uniform in [-scale, scale], large relative to weight updates so a single
// masked update reveals nothing useful.
func maskInto(dst []float32, seed int64, sign float32, scale float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range dst {
		dst[i] += sign * float32((2*rng.Float64()-1)*scale)
	}
}

// MaskUpdate adds client id's pairwise masks for the given round roster to
// weights in place. Every client in roster must call MaskUpdate with the
// same roster and roundSeed for the masks to cancel in aggregation.
func MaskUpdate(weights []float32, id int, roster []int, roundSeed int64, scale float64) {
	for _, other := range roster {
		if other == id {
			continue
		}
		sign := float32(1)
		if other < id {
			sign = -1
		}
		maskInto(weights, PairwiseSeed(roundSeed, id, other), sign, scale)
	}
}

// SecureAgg is FedAvg through pairwise-masked updates. Each update is
// scaled by its client's share n_k/n of the round's samples and masked
// against every other update in the round (its roster, read from the
// updates' IDs); the server only ever holds the masked vectors, whose
// sum is the sample-weighted mean because the masks cancel. Thresholds
// and sample counts travel in the clear, as in the paper. RunCohort
// aggregates only the clients that returned an update, so a round with
// dropouts masks against the survivors alone and still cancels.
type SecureAgg struct {
	// Seed is the round's mask seed; give each round its own.
	Seed int64
	// MaskScale is the mask magnitude (zero or negative: 1, far above
	// typical weight-update magnitudes).
	MaskScale float64
}

// Name implements Aggregator.
func (SecureAgg) Name() string { return "secure" }

// Aggregate implements Aggregator.
func (a SecureAgg) Aggregate(dst []float32, updates []Update) float64 {
	clear(dst)
	total := 0
	roster := make([]int, len(updates))
	for i, u := range updates {
		total += u.Samples
		roster[i] = u.ID
	}
	if total == 0 {
		return 0
	}
	var tau float64
	for _, u := range updates {
		vecmath.Axpy(1, a.masked(u, roster, total), dst)
		tau += float64(u.Samples) / float64(total) * u.Tau
	}
	return tau
}

// masked is what client u.ID sends the server: its weights scaled by
// its share of total samples, plus its pairwise masks for roster.
func (a SecureAgg) masked(u Update, roster []int, total int) []float32 {
	scale := a.MaskScale
	if scale <= 0 {
		scale = 1
	}
	coef := float32(u.Samples) / float32(total)
	out := make([]float32, len(u.Weights))
	for j, w := range u.Weights {
		out[j] = coef * w
	}
	MaskUpdate(out, u.ID, roster, a.Seed, scale)
	return out
}
