// Package fl implements the federated-learning training stack of §III-A
// (the paper uses the Flower framework): a round-based server that ships
// the global embedding model and global threshold to a sampled subset of
// clients, clients that fine-tune locally on their private query pairs and
// search their optimal cosine threshold, and FedAvg aggregation of both
// weights (Eq. 1) and thresholds.
//
// Two deployments are supported with the same Server and Client types:
// in-process clients (the paper's simulation setup, §IV-A.2) and remote
// clients over a TCP/gob transport (tcp.go), demonstrating that the
// protocol is a real wire protocol rather than a loop over structs.
package fl

import (
	"fmt"
	"math/rand"

	"repro/internal/embed"
	"repro/internal/train"
)

// Update is what a client returns after local training: its new weights,
// its locally optimal threshold, and its sample count for weighting.
// RunCohort stamps it with the client's ID.
type Update struct {
	ID      int
	Weights []float32
	Tau     float64
	Samples int
}

// Client is one FL participant. TrainRound must install the supplied
// global weights, train locally, and return the update. Implementations
// must be safe to call from the server's worker goroutines (one call per
// client at a time).
type Client interface {
	// ID identifies the client for sampling and logs.
	ID() int
	// TrainRound performs one round of local work.
	TrainRound(globalWeights []float32, globalTau float64) (Update, error)
}

// Aggregator combines client updates into new global weights and tau.
type Aggregator interface {
	// Aggregate writes the combined weights into dst (sized like each
	// update's weights) and returns the combined threshold.
	Aggregate(dst []float32, updates []Update) float64
	// Name identifies the strategy.
	Name() string
}

// FedAvg is Eq. 1: weights averaged proportionally to client sample
// counts; thresholds averaged the same way (the paper aggregates τ on the
// server alongside the weights).
type FedAvg struct{}

// Name implements Aggregator.
func (FedAvg) Name() string { return "fedavg" }

// Aggregate implements Aggregator.
func (FedAvg) Aggregate(dst []float32, updates []Update) float64 {
	for i := range dst {
		dst[i] = 0
	}
	total := 0
	for _, u := range updates {
		total += u.Samples
	}
	if total == 0 {
		return 0
	}
	var tau float64
	for _, u := range updates {
		w := float32(u.Samples) / float32(total)
		for i, x := range u.Weights {
			dst[i] += w * x
		}
		tau += float64(u.Samples) / float64(total) * u.Tau
	}
	return tau
}

// SimpleAvg ignores sample counts: a plain mean over updates. Included as
// the ablation partner of FedAvg for unbalanced client data.
type SimpleAvg struct{}

// Name implements Aggregator.
func (SimpleAvg) Name() string { return "simpleavg" }

// Aggregate implements Aggregator.
func (SimpleAvg) Aggregate(dst []float32, updates []Update) float64 {
	for i := range dst {
		dst[i] = 0
	}
	if len(updates) == 0 {
		return 0
	}
	inv := 1 / float32(len(updates))
	var tau float64
	for _, u := range updates {
		for i, x := range u.Weights {
			dst[i] += inv * x
		}
		tau += u.Tau
	}
	return tau / float64(len(updates))
}

// ServerConfig tunes the orchestration.
type ServerConfig struct {
	// Rounds is the number of FL rounds (50 in §IV-E).
	Rounds int
	// ClientsPerRound is the sample size per round (4 in §IV-E).
	ClientsPerRound int
	// Seed drives client sampling.
	Seed int64
	// Aggregator defaults to FedAvg.
	Aggregator Aggregator
	// InitialTau seeds τ_global before the first aggregation.
	InitialTau float64
	// TolerateFailures drops failed clients from a round's aggregation
	// instead of failing the round, as production FL must tolerate
	// stragglers and dropouts. A round where every sampled client fails
	// still errors.
	TolerateFailures bool
}

// RoundInfo reports one completed round to the Run callback.
type RoundInfo struct {
	Round     int
	Sampled   []int // client IDs
	GlobalTau float64
}

// Server owns the global model state and runs the FL protocol.
type Server struct {
	cfg     ServerConfig
	model   *embed.Model // global model (weights are authoritative)
	clients []Client
	tau     float64
	rng     *rand.Rand
}

// NewServer builds a server around the initial global model.
func NewServer(global *embed.Model, clients []Client, cfg ServerConfig) *Server {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.ClientsPerRound <= 0 || cfg.ClientsPerRound > len(clients) {
		cfg.ClientsPerRound = len(clients)
	}
	if cfg.Aggregator == nil {
		cfg.Aggregator = FedAvg{}
	}
	return &Server{
		cfg:     cfg,
		model:   global,
		clients: clients,
		tau:     cfg.InitialTau,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Model returns the current global model. Callers must not mutate it while
// Run is in progress.
func (s *Server) Model() *embed.Model { return s.model }

// Tau returns the current global threshold τ_global.
func (s *Server) Tau() float64 { return s.tau }

// Run executes the configured number of rounds. After each round the
// callback (if non-nil) receives the round summary; it runs on the
// server's goroutine, so it may safely evaluate the global model.
func (s *Server) Run(cb func(RoundInfo)) error {
	for round := 0; round < s.cfg.Rounds; round++ {
		if err := s.runRound(round, cb); err != nil {
			return fmt.Errorf("fl: round %d: %w", round, err)
		}
	}
	return nil
}

func (s *Server) runRound(round int, cb func(RoundInfo)) error {
	// Step 1: sample clients and ship the global state.
	perm := s.rng.Perm(len(s.clients))
	cohort := make([]Client, s.cfg.ClientsPerRound)
	for i, ci := range perm[:s.cfg.ClientsPerRound] {
		cohort[i] = s.clients[ci]
	}

	// Steps 2–4: the transport-agnostic cohort runner trains the sampled
	// clients in parallel and aggregates their updates.
	res, err := RunCohort(cohort, s.model.Weights(), s.tau, s.cfg.Aggregator, s.cfg.TolerateFailures)
	if err != nil {
		return err
	}
	s.tau = res.Tau
	s.model.SetWeights(res.Weights)

	if cb != nil {
		cb(RoundInfo{Round: round, Sampled: res.Trained, GlobalTau: s.tau})
	}
	return nil
}

// Ensure LocalClient keeps satisfying Client.
var _ Client = (*LocalClient)(nil)

// LocalClient is an in-process FL participant holding a private shard of
// labelled pairs. Its validation subset drives the optimal-threshold
// search of §III-A.2.
type LocalClient struct {
	id   int
	arch embed.Arch
	// model is built by the first TrainRound, around the global weights
	// it receives, and overwritten in place by every later one.
	model    *embed.Model
	trainSet []trainPair
	valSet   []trainPair
	cfg      train.Config
	beta     float64
}

// trainPair aliases dataset.Pair without importing it here; see local.go.
