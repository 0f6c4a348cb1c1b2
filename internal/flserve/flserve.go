// Package flserve is the online federated-learning coordinator of the
// serving layer: it closes the paper's headline loop for live traffic.
// Served tenants continuously generate private training examples
// (Collector), a round scheduler samples cohorts of active tenants and
// runs local fine-tune + τ search via internal/train with FedAvg or
// secure aggregation from internal/fl (Service.RunRound), every
// aggregated model is committed to a versioned content-addressed registry
// (ModelRegistry), and a hot rollout path swaps the new encoder into the
// running process and re-embeds cached entries in the background, two
// tenants at a time, without blocking queries (rollout.go).
//
// Each piece of state has one owner. The global model is the registry's
// latest committed model: the serving encoder holds that same model once
// it is rolled out, a round trains from the serving model's weights, and
// Tau is the serving version's τ_global. Which version embedded a
// tenant's cache is the tenant's own (server.Tenant.ModelVersion), and
// the tenant registry persists it with the cache.
//
// The subsystem lives inside cmd/cacheserve: enable it with -fl. Rounds
// run on a timer (-fl-interval) or on demand (POST /v1/fl/round); state
// is inspectable at GET /v1/fl/status and GET /v1/model.
package flserve

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/embed"
	"repro/internal/fl"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/train"
)

// Config assembles a Service. How many tenants a rollout re-embeds at
// once is not configured: it is the constant rolloutParallel.
type Config struct {
	// Registry is the serving layer's tenant table. Required.
	Registry *server.Registry
	// Collector supplies per-tenant training shards. Required (wire it as
	// the server's Observer too).
	Collector *Collector
	// Encoder is the live serving encoder; rollouts swap new global
	// models into it. Required. Its current encoder must be a trainable
	// *embed.Model: its architecture is the one being federated.
	Encoder *embed.Swappable
	// Store, when non-nil, persists model versions and collected shards
	// across restarts.
	Store *store.Store
	// MaxVersions bounds retained model payloads (default 5).
	MaxVersions int

	// Train is the local fine-tuning recipe shipped to cohort members.
	// Zero value = train.DefaultConfig() with 2 epochs (online rounds
	// favour frequency over per-round depth).
	Train train.Config
	// Beta weights recall vs precision in the clients' τ search
	// (default 0.5, the serving-friendly precision-leaning value).
	Beta float64
	// Cohort is how many tenants are sampled per round (default 4, the
	// paper's §IV-E setting).
	Cohort int
	// MinPairs is the shard size a tenant needs to be sampled
	// (default 8).
	MinPairs int
	// Aggregator combines updates (default fl.FedAvg).
	Aggregator fl.Aggregator
	// Secure aggregates through pairwise-masked updates (fl.SecureAgg,
	// in place of Aggregator): the coordinator only ever sees masked
	// per-tenant weight vectors.
	Secure bool
	// InitialTau seeds the global threshold before the first round
	// (default 0.83).
	InitialTau float64
	// Seed drives cohort sampling.
	Seed int64
	// Interval, when positive, runs rounds on a timer after Start.
	Interval time.Duration
	// Clock is the round scheduler's time source (the Interval ticker
	// and round wall-time reporting). Nil defaults to the wall clock;
	// simulations inject a virtual one so FL rounds fire on virtual
	// time.
	Clock sim.Clock
}

// Service is the online FL coordinator.
type Service struct {
	cfg    Config
	models *ModelRegistry

	// serving is the record of the version the serving encoder holds
	// (nil while it is still the seed model). Set only by serve, so it
	// trails a commit until that commit's rollout swaps the encoder in.
	// Atomic so tenant-activation hooks (which can fire inside RunRound's
	// registry calls, while mu is held) read it without deadlocking.
	serving atomic.Pointer[ModelRecord]

	mu sync.Mutex // serialises rounds (held for a full round's duration)

	// stateMu guards the round counter and history — a separate, briefly
	// held lock so /v1/fl/status stays responsive while a round runs.
	stateMu sync.Mutex
	round   int
	history []RoundReport

	stop     chan struct{}
	stopOnce sync.Once
	loopWG   sync.WaitGroup
	rng      *rand.Rand

	rollouts rolloutStats
}

// RoundReport summarises one completed online round.
type RoundReport struct {
	Round    int     `json:"round"`
	Version  string  `json:"version"`
	Tau      float64 `json:"tau"`
	Eligible int     `json:"eligible_tenants"`
	Cohort   int     `json:"cohort"`
	Trained  int     `json:"trained"`
	Failed   int     `json:"failed"`
	Samples  int     `json:"samples"`
	// Reembedded counts cache entries migrated during the rollout.
	Reembedded int    `json:"reembedded_entries"`
	TookMillis int64  `json:"took_millis"`
	Secure     bool   `json:"secure"`
	Error      string `json:"error,omitempty"`
}

// New builds the coordinator. The registry's latest persisted version (if
// any) is swapped into the serving encoder immediately, so a restarted
// process resumes serving its last global model.
func New(cfg Config) (*Service, error) {
	if cfg.Registry == nil || cfg.Collector == nil || cfg.Encoder == nil {
		return nil, fmt.Errorf("flserve: Registry, Collector and Encoder are required")
	}
	cur, ok := cfg.Encoder.Current().(*embed.Model)
	if !ok {
		return nil, fmt.Errorf("flserve: serving encoder %s is not a trainable model", cfg.Encoder.Name())
	}
	arch := cur.Cfg
	if !arch.Trainable {
		return nil, fmt.Errorf("flserve: architecture %s is frozen and cannot be federated", arch.Name)
	}
	if cfg.Train.Epochs == 0 {
		cfg.Train = train.DefaultConfig()
		cfg.Train.Epochs = 2
	}
	if cfg.Beta <= 0 {
		cfg.Beta = 0.5
	}
	if cfg.Cohort <= 0 {
		cfg.Cohort = 4
	}
	if cfg.MinPairs <= 0 {
		cfg.MinPairs = 8
	}
	if cfg.Aggregator == nil {
		cfg.Aggregator = fl.FedAvg{}
	}
	if cfg.InitialTau <= 0 {
		cfg.InitialTau = 0.83
	}
	cfg.Clock = sim.Or(cfg.Clock)
	models, err := NewModelRegistry(cfg.Store, cfg.MaxVersions, arch)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:    cfg,
		models: models,
		stop:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	if rec, ok := models.Latest(); ok {
		if rec.Arch != arch.Name {
			return nil, fmt.Errorf("flserve: persisted model arch %q != serving %q", rec.Arch, arch.Name)
		}
		m, err := models.Model(rec.Version)
		if err != nil {
			return nil, err
		}
		s.round = rec.Round + 1
		s.serve(rec, m)
	}
	if cfg.Store != nil {
		if err := cfg.Collector.LoadFrom(cfg.Store); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Models exposes the version registry.
func (s *Service) Models() *ModelRegistry { return s.models }

// Tau reports the current global threshold: the serving version's, or
// InitialTau while the seed model serves. Lock-free: safe from tenant
// lifecycle hooks that run while a round is in progress.
func (s *Service) Tau() float64 {
	if rec := s.serving.Load(); rec != nil {
		return rec.Tau
	}
	return s.cfg.InitialTau
}

// servingModel is the model every tenant encodes with, and the one a
// round trains from: New refuses any other encoder, and serve swaps in
// only models.
func (s *Service) servingModel() *embed.Model { return s.cfg.Encoder.Current().(*embed.Model) }

// Start launches the periodic round loop when Interval is configured.
func (s *Service) Start() {
	if s.cfg.Interval <= 0 {
		return
	}
	s.loopWG.Add(1)
	go func() {
		defer s.loopWG.Done()
		t := s.cfg.Clock.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.RunRound() // errors land in the status history
			}
		}
	}()
}

// Close stops the round loop and persists collected shards.
func (s *Service) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.loopWG.Wait()
	if s.cfg.Store != nil {
		return s.cfg.Collector.SaveTo(s.cfg.Store)
	}
	return nil
}

// RunRound executes one full online FL round: sample a cohort of active
// tenants, train their private shards locally, aggregate weights + τ,
// commit the version, and hot-roll it out to all resident tenants. Rounds
// are serialised; concurrent calls queue. Serving traffic continues
// throughout — only the per-tenant re-embed batches take the cache write
// lock, in short slices.
func (s *Service) RunRound() (RoundReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.cfg.Clock.Now()
	round := s.Round()
	rep := RoundReport{Round: round, Tau: s.Tau(), Secure: s.cfg.Secure}
	fail := func(err error) (RoundReport, error) {
		rep.Error = err.Error()
		rep.TookMillis = s.cfg.Clock.Since(start).Milliseconds()
		s.pushHistory(rep)
		return rep, err
	}

	// An earlier failed write (an ENOSPC at a commit, say) wedged the
	// store; the model registry holds the same *Store, so reopening it
	// here recovers both, and the round commits once space is free.
	if st := s.cfg.Store; st != nil && st.Wedged() != nil {
		if err := st.Reopen(); err != nil {
			return fail(fmt.Errorf("flserve: reopening the wedged FL store: %w", err))
		}
	}

	// 1. Sample the cohort from tenants with enough collected examples.
	eligible := s.cfg.Collector.Eligible(s.cfg.MinPairs)
	rep.Eligible = len(eligible)
	if len(eligible) == 0 {
		return fail(fmt.Errorf("flserve: no tenant has %d collected pairs yet", s.cfg.MinPairs))
	}
	cohortUsers := drawCohort(s.rng, eligible, s.cfg.Cohort)
	rep.Cohort = len(cohortUsers)

	// 2. Build one FL client per cohort member around its private shard.
	// Tenants are pinned (refcounted) for the duration so eviction cannot
	// race the τ installation at rollout.
	clients := make([]fl.Client, 0, len(cohortUsers))
	pinned := make([]*server.Tenant, 0, len(cohortUsers))
	defer func() {
		for _, t := range pinned {
			t.Release()
		}
	}()
	for i, user := range cohortUsers {
		pinned = append(pinned, s.cfg.Registry.Get(user))
		pairs := s.cfg.Collector.Shard(user)
		if len(pairs) == 0 {
			continue
		}
		// Shards arrive in traffic order; shuffle so the client's held-out
		// validation slice mixes labels and recency.
		s.rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		clients = append(clients, fl.NewLocalClient(i, s.models.arch, s.cfg.Seed+int64(round)*7919, pairs, s.cfg.Train, s.cfg.Beta))
	}
	if len(clients) == 0 {
		return fail(fmt.Errorf("flserve: sampled cohort has no training data"))
	}

	// 3. Train from the serving model + aggregate (plaintext, or masked
	// secure agg); failed clients are dropped either way.
	agg := s.cfg.Aggregator
	if s.cfg.Secure {
		agg = fl.SecureAgg{Seed: s.cfg.Seed + int64(round), MaskScale: 1}
	}
	res, err := fl.RunCohort(clients, s.servingModel().Weights(), s.Tau(), agg, true)
	if err != nil {
		return fail(err)
	}
	rep.Trained = len(res.Trained)
	rep.Failed = len(res.Failed)
	rep.Samples = res.Samples

	// 4. Commit the version. Nothing changes before the commit succeeds:
	// a failed one leaves the next round training from the serving model.
	arch := s.models.arch
	rec, err := s.models.Commit(ModelRecord{
		Round:   round,
		Arch:    arch.Name,
		Dim:     arch.OutDim,
		Tau:     res.Tau,
		Cohort:  len(clients),
		Samples: rep.Samples,
	}, res.Weights)
	if err != nil {
		return fail(err)
	}
	rep.Version = rec.Version
	rep.Tau = rec.Tau

	// 5. Hot rollout: swap the committed model in, then re-embed resident
	// tenants (bounded parallelism; queries keep flowing).
	m, err := s.models.Model(rec.Version)
	if err != nil {
		return fail(err)
	}
	rep.Reembedded = s.rollout(rec, m)

	// 6. Persist collected shards so a restart keeps the training data.
	// Each round's commit and prune leave dead records in the log, so it
	// is compacted once it is over twice its live bytes.
	if st := s.cfg.Store; st != nil {
		if err := s.cfg.Collector.SaveTo(st); err != nil {
			return fail(err)
		}
		if st.SizeOnDisk() > 2*st.LiveBytes() {
			if err := st.Compact(); err != nil {
				return fail(err)
			}
		}
	}

	s.stateMu.Lock()
	s.round++
	s.stateMu.Unlock()
	rep.TookMillis = s.cfg.Clock.Since(start).Milliseconds()
	s.pushHistory(rep)
	return rep, nil
}

// drawCohort shuffles eligible with rng and returns its first n tenants
// (all of them when fewer are eligible). Eligible lists tenants in
// sorted order, so the cohort is a function of rng's seed.
func drawCohort(rng *rand.Rand, eligible []string, n int) []string {
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	return eligible[:min(n, len(eligible))]
}

// Round reports the next round number (rounds completed so far).
func (s *Service) Round() int {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.round
}

// pushHistory appends a round report, bounding the ring.
func (s *Service) pushHistory(rep RoundReport) {
	const maxHistory = 64
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.history = append(s.history, rep)
	if len(s.history) > maxHistory {
		s.history = s.history[len(s.history)-maxHistory:]
	}
}
