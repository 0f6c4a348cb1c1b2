package fl

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/train"
)

type trainPair = dataset.Pair

// NewLocalClient builds an in-process client. The model must share the
// architecture of the server's global model (same weight layout). pairs is
// the client's private data; a fraction is held out as the validation set
// for the threshold search (§IV-A.1: each client uses its validation data
// to determine the optimal cosine threshold). seed, offset by the
// client's ID, seeds its local batch order; the model itself is built
// from the global weights of the client's first round.
func NewLocalClient(id int, arch embed.Arch, seed int64, pairs []dataset.Pair, cfg train.Config, beta float64) *LocalClient {
	nVal := len(pairs) / 5
	if nVal < 2 {
		nVal = min(len(pairs), 2)
	}
	if beta <= 0 {
		beta = 1
	}
	// Distinct shuffling seed per client keeps local batch orders
	// decorrelated across the fleet.
	cfg.Seed = seed + int64(id)*101
	return &LocalClient{
		id:       id,
		arch:     arch,
		trainSet: pairs[nVal:],
		valSet:   pairs[:nVal],
		cfg:      cfg,
		beta:     beta,
	}
}

// hasBothLabels reports whether pairs contains at least one duplicate and
// one non-duplicate — the precondition for a meaningful threshold sweep.
func hasBothLabels(pairs []trainPair) bool {
	if len(pairs) < 2 {
		return false
	}
	var dup, nondup bool
	for _, p := range pairs {
		if p.Dup {
			dup = true
		} else {
			nondup = true
		}
	}
	return dup && nondup
}

// ID implements Client.
func (c *LocalClient) ID() int { return c.id }

// Samples reports the client's training-set size (the n_k of Eq. 1).
func (c *LocalClient) Samples() int { return len(c.trainSet) }

// TrainRound implements Client: install the global weights, fine-tune on
// the local shard (multitask contrastive + MNRL), search the local optimal
// threshold on the validation shard, and return both.
func (c *LocalClient) TrainRound(globalWeights []float32, globalTau float64) (Update, error) {
	if len(globalWeights) != c.arch.WeightCount() {
		return Update{}, fmt.Errorf("fl: client %d: got %d weights, model has %d",
			c.id, len(globalWeights), c.arch.WeightCount())
	}
	if c.model == nil {
		// The length is checked above, so FromWeights cannot refuse it.
		c.model, _ = embed.FromWeights(c.arch, slices.Clone(globalWeights))
	} else {
		c.model.SetWeights(globalWeights)
	}
	if len(c.trainSet) > 0 {
		tr := train.NewTrainer(c.model, train.NewSGD(c.cfg.LR), c.cfg)
		tr.Train(c.trainSet)
	}
	tau := globalTau
	if hasBothLabels(c.valSet) {
		// Cache-aware threshold search: the client optimises the F-score
		// of the cache decision, not the pairwise decision (§III-A.2).
		// The candidate pool includes the client's full local query log so
		// the max-over-N similarity tail resembles a deployed cache.
		// Single-label validation sets (possible for online shards built
		// from live feedback) skip the search: without both classes the
		// sweep degenerates to τ=0, which would poison the aggregate.
		extra := make([]string, 0, 2*len(c.trainSet))
		for _, p := range c.trainSet {
			extra = append(extra, p.A, p.B)
		}
		sweep := train.CacheSweepWithPool(c.model, c.valSet, extra, 0.01, c.beta)
		tau = sweep.Optimal.Tau
	}
	return Update{
		Weights: c.model.Weights(),
		Tau:     tau,
		Samples: max(len(c.trainSet), 1),
	}, nil
}
