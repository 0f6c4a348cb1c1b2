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
// The subsystem lives inside cmd/cacheserve: enable it with -fl. Rounds
// run on a timer (-fl-interval) or on demand (POST /v1/fl/round); state
// is inspectable at GET /v1/fl/status and GET /v1/model.
package flserve

import (
	"fmt"
	"math"
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
	// *embed.Model of Arch (possibly reached through the registry's
	// latest version at startup).
	Encoder *embed.Swappable
	// Arch is the trainable encoder architecture being federated.
	Arch embed.Arch
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
	// Secure aggregates through pairwise-masked updates
	// (fl.RunSecureRound) instead of plaintext FedAvg: the coordinator
	// only ever sees masked per-tenant weight vectors.
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
	global *embed.Model // authoritative global weights (coordinator copy)

	// tau is math.Float64bits of the current global threshold; atomic so
	// tenant-activation hooks (which can fire inside RunRound's registry
	// calls, while s.mu is held) read it without deadlocking.
	tau atomic.Uint64

	// serving is the record of the version the serving encoder holds
	// (nil while it is still the seed model). Set only by serve, so it
	// trails a commit until that commit's rollout swaps the encoder in.
	serving atomic.Pointer[ModelRecord]

	mu sync.Mutex // serialises rounds (held for a full round's duration)

	// stateMu guards the round counter and history — a separate, briefly
	// held lock so /v1/fl/status stays responsive while a round runs.
	stateMu sync.Mutex
	round   int
	history []RoundReport

	// tenantVersions: userID -> model version the tenant's entries were
	// last confirmed migrated to (grows with the distinct-user population;
	// entries are tiny). Guarded by tvMu, touched from rollout goroutines
	// and registry lifecycle hooks.
	tvMu           sync.Mutex
	tenantVersions map[string]string

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
	if !cfg.Arch.Trainable {
		return nil, fmt.Errorf("flserve: architecture %s is frozen and cannot be federated", cfg.Arch.Name)
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
	models, err := NewModelRegistry(cfg.Store, cfg.MaxVersions, cfg.Arch)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:            cfg,
		models:         models,
		tenantVersions: make(map[string]string),
		stop:           make(chan struct{}),
		rng:            rand.New(rand.NewSource(cfg.Seed)),
	}
	s.setTau(cfg.InitialTau)
	// The coordinator's global model starts from the serving encoder's
	// current weights, or resumes from the persisted latest version.
	s.global = embed.NewModel(cfg.Arch, cfg.Seed)
	if cur, ok := cfg.Encoder.Current().(*embed.Model); ok && cur.Cfg.Name == cfg.Arch.Name {
		s.global.SetWeights(cur.Weights())
	}
	if rec, ok := models.Latest(); ok {
		if rec.Arch != cfg.Arch.Name {
			return nil, fmt.Errorf("flserve: persisted model arch %q != configured %q", rec.Arch, cfg.Arch.Name)
		}
		w := models.LatestWeights()
		if len(w) != s.global.WeightCount() {
			return nil, fmt.Errorf("flserve: persisted model holds %d weights, arch %s wants %d",
				len(w), cfg.Arch.Name, s.global.WeightCount())
		}
		s.global.SetWeights(w)
		s.setTau(rec.Tau)
		s.round = rec.Round + 1
		s.serve(rec, w)
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

// Tau reports the current global threshold. Lock-free: safe from tenant
// lifecycle hooks that run while a round is in progress.
func (s *Service) Tau() float64 { return math.Float64frombits(s.tau.Load()) }

func (s *Service) setTau(tau float64) { s.tau.Store(math.Float64bits(tau)) }

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

	// 1. Sample the cohort from tenants with enough collected examples.
	eligible := s.cfg.Collector.Eligible(s.cfg.MinPairs)
	rep.Eligible = len(eligible)
	if len(eligible) == 0 {
		return fail(fmt.Errorf("flserve: no tenant has %d collected pairs yet", s.cfg.MinPairs))
	}
	s.rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	cohortUsers := eligible[:min(s.cfg.Cohort, len(eligible))]
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
		t, err := s.cfg.Registry.Get(user)
		if err == nil {
			pinned = append(pinned, t)
		}
		pairs := s.cfg.Collector.Shard(user)
		if len(pairs) == 0 {
			continue
		}
		// Shards arrive in traffic order; shuffle so the client's held-out
		// validation slice mixes labels and recency.
		s.rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		clients = append(clients, fl.NewLocalClient(i, s.cfg.Arch, s.cfg.Seed+int64(round)*7919, pairs, s.cfg.Train, s.cfg.Beta))
	}
	if len(clients) == 0 {
		return fail(fmt.Errorf("flserve: sampled cohort has no training data"))
	}

	// 3. Train + aggregate (plaintext FedAvg or masked secure agg).
	global := s.global.Weights()
	var newWeights []float32
	var newTau float64
	if s.cfg.Secure {
		res, err := fl.RunSecureRound(clients, global, s.Tau(), s.cfg.Seed+int64(round), 1.0)
		if err != nil {
			return fail(err)
		}
		newWeights, newTau = res.Aggregated, res.Tau
		rep.Trained = len(clients)
		rep.Samples = res.Samples
	} else {
		res, err := fl.RunCohort(clients, global, s.Tau(), s.cfg.Aggregator, true)
		if err != nil {
			return fail(err)
		}
		newWeights, newTau = res.Weights, res.Tau
		rep.Trained = len(res.Trained)
		rep.Failed = len(res.Failed)
		rep.Samples = res.Samples
	}

	// 4. Commit the version.
	s.global.SetWeights(newWeights)
	s.setTau(newTau)
	rec, err := s.models.Commit(ModelRecord{
		Round:   round,
		Arch:    s.cfg.Arch.Name,
		Dim:     s.cfg.Arch.OutDim,
		Tau:     newTau,
		Cohort:  len(clients),
		Samples: rep.Samples,
	}, newWeights)
	if err != nil {
		return fail(err)
	}
	rep.Version = rec.Version
	rep.Tau = newTau

	// 5. Hot rollout: swap the serving encoder, then re-embed resident
	// tenants (bounded parallelism; queries keep flowing).
	rep.Reembedded = s.rollout(rec, newWeights)

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
