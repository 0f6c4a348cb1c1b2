package fl

import (
	"fmt"
	"sync"
)

// CohortResult is the outcome of one aggregated cohort round: the new
// global weights and threshold, plus which clients contributed and which
// failed. It is the unit both deployments share — the offline Server
// (fl.go) and the online serving coordinator (internal/flserve) call
// RunCohort with whatever client set they sampled.
type CohortResult struct {
	// Weights is the aggregated global weight vector.
	Weights []float32
	// Tau is the aggregated global threshold.
	Tau float64
	// Trained lists the IDs of clients whose updates entered the
	// aggregate.
	Trained []int
	// Failed lists the IDs of clients that errored (only populated when
	// failures are tolerated; otherwise RunCohort returns the error).
	Failed []int
	// Samples is the total sample count across contributing clients.
	Samples int
}

// RunCohort executes one transport-agnostic FL round over an
// already-sampled cohort: ship the global state to every client in
// parallel, collect their updates, and aggregate weights and thresholds.
// Client sampling, global-model bookkeeping and scheduling stay with the
// caller, so the same runner serves the offline batch Server and the
// online serving-layer coordinator.
//
// When tolerate is true, failed clients are dropped from the aggregation
// (production FL must survive stragglers and dropouts); a round where
// every client fails still errors. agg defaults to FedAvg when nil.
func RunCohort(clients []Client, global []float32, tau float64, agg Aggregator, tolerate bool) (CohortResult, error) {
	if len(clients) == 0 {
		return CohortResult{}, fmt.Errorf("fl: cohort is empty")
	}
	if agg == nil {
		agg = FedAvg{}
	}

	updates := make([]Update, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c Client) {
			defer wg.Done()
			updates[i], errs[i] = c.TrainRound(global, tau)
		}(i, c)
	}
	wg.Wait()

	res := CohortResult{Weights: make([]float32, len(global))}
	good := make([]Update, 0, len(clients))
	for i, err := range errs {
		id := clients[i].ID()
		if err == nil && len(updates[i].Weights) != len(global) {
			err = fmt.Errorf("returned %d weights, want %d", len(updates[i].Weights), len(global))
		}
		if err != nil {
			if !tolerate {
				return CohortResult{}, fmt.Errorf("client %d: %w", id, err)
			}
			res.Failed = append(res.Failed, id)
			continue
		}
		updates[i].ID = id
		good = append(good, updates[i])
		res.Trained = append(res.Trained, id)
		res.Samples += updates[i].Samples
	}
	if len(good) == 0 {
		return CohortResult{}, fmt.Errorf("all %d sampled clients failed", len(clients))
	}
	res.Tau = agg.Aggregate(res.Weights, good)
	return res, nil
}
