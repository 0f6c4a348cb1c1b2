// Package stack is the single definition of "a cacheserve": the
// multi-tenant semantic-cache serving layer — one HTTP process hosting a
// MeanCache client per user (internal/server), fronting an upstream LLM
// service. Misses are proxied upstream; hits are answered from the
// requesting user's local semantic cache.
//
// Config is what can be configured, (*Config).Bind is cmd/cacheserve's
// command line (each Bind line's default argument is the only place a
// default is written, or names the exported constant its package falls
// back to, such as cluster.DefaultVNodes) and Build assembles the
// process. cmd/cacheserve,
// loadgen's scenarios, the root serving benchmarks and
// examples/federated all Build from Default, so a changed
// default or wiring reaches every gate. (bench/stack.go still copies the
// defaults by hand; TestDefaultMatchesBenchStack pins them.)
//
// The upstream is either a network llmsim service (-upstream, started
// with cmd/llmserve: the Figure 1 topology) or, with -upstream "", an
// in-process simulator in virtual-time mode — convenient for load tests
// that should not spend wall-clock time sleeping.
//
// With -fl the process additionally runs the online federated-learning
// coordinator (internal/flserve): live tenants' feedback and hit/miss
// signals accumulate into private per-tenant training shards, rounds
// sample cohorts of active tenants, fine-tune the shared encoder and
// aggregate the global threshold, and every new global model is committed
// to a versioned registry and hot-rolled into the running tenants.
//
// With -cluster the process becomes one node of a horizontally sharded
// deployment (internal/cluster): tenants place deterministically on a
// consistent-hash ring over the live members, requests for tenants owned
// by a peer are forwarded to it (bounded retries, one hedge on slow
// peers), and when membership changes — join, leave, or death detected by
// health probes — each node drains the tenants it no longer owns through
// the store-persistence path so the new owner revives them (τ and model
// version intact). -persist-dir must point at storage all nodes share.
// GET /v1/cluster/status reports ring and peer health.
//
// Each tenant's similarity search runs on the index its cache's size
// picks (core.New's default, index.Adaptive): the exact scan, then IVF
// past a fixed threshold of index.DefaultFlatMax entries, which Build
// logs; the IVF is rebuilt, sized to the tenant, each time the tenant
// quadruples. The Put that crosses a threshold builds the next tier, so
// that tenant's lookups wait for the build (BenchmarkAdaptivePromote768
// in internal/index times it). No flag chooses or tunes a tier, and a
// revived tenant walks the same ladder.
//
// A tenant encodes its query and searches its cache on its request's
// goroutine, one text and one probe at a time, as the paper's lookup
// does: nothing is batched across tenants.
//
// Resilience: -quota-rate enforces per-tenant token-bucket admission
// (429 + Retry-After past the burst), -limit-max puts an AIMD adaptive
// concurrency limiter with a bounded wait queue on the upstream miss
// path, and -breaker-window arms a circuit breaker over upstream
// outcomes. While the breaker is open the node serves cache-only: hits
// still answer (at τ relaxed by -tau-degraded), misses shed with 503 +
// Retry-After until half-open probes confirm the upstream healed. The
// same breaker tuning guards cluster peer forwards, hedged duplicates
// are suppressed while the limiter is saturated. Background work takes
// no admission token: an FL rollout re-embeds two tenants at a time, and
// a revived tenant's re-embed runs at once. All error responses are
// structured JSON {"error","code","retry_after_ms"}.
//
// Observability: every cacheserve serves a Prometheus text exposition at
// GET /metrics covering serving outcomes, per-stage and per-tier
// latency, registry/arena occupancy, and — when enabled — the cluster
// and FL layers; GET /v1/stats is a JSON view of
// the same counters. Tracing is opt-in: -trace-sample head-samples
// per-request traces (decode → encode → search → upstream → respond
// spans, stitched across a cluster forward) into a recent ring at GET
// /v1/debug/traces; -trace-slow additionally keeps any trace at least
// that slow.
package stack

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/flserve"
	"repro/internal/index"
	"repro/internal/llmsim"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/train"
)

// Config is everything a cacheserve can be told. All but the last two
// fields are set by flags (see Bind). A section that configures one
// package is that package's own config struct, which Build hands through,
// so an in-process caller can also set what no flag reaches (the overload
// scenario's Governor.Limiter.InitialLimit).
type Config struct {
	Addr  string // listen address; in cluster mode also this node's identity
	Pprof string // net/http/pprof side listener (cmd/cacheserve serves it)

	Upstream        string // llmsim host:port; "" = in-process simulator
	Sleep           bool
	UpstreamTimeout time.Duration

	Model, Arch string // trained encoder file (wins) or architecture name
	Seed        int64  // untrained-encoder init; also seeds FL sampling

	Tau, CtxTau, FeedbackStep, TauDegraded float64
	TopK, Capacity                         int

	Shards, MaxTenants int
	PersistDir         string

	Cluster                  bool
	Peers                    string // comma-separated host:port list
	VNodes, ClusterDeadAfter int
	ClusterHeartbeat         time.Duration

	Governor resilience.GovernorConfig
	Trace    obs.TracerConfig

	FL, FLSecure                   bool
	FLCohort, FLMinPairs, FLEpochs int
	FLInterval                     time.Duration
	FLBeta                         float64
	FLDir                          string

	// Encoder, when non-nil, replaces Model/Arch: loadgen's cluster
	// scenario shares one encoder across its three in-process nodes.
	Encoder embed.Encoder
	// LLM, when non-nil, replaces Upstream/Sleep: the overload scenario
	// keeps its *llmsim.Service to slow and fail it.
	LLM core.LLM
}

// Bind registers cacheserve's command line on fs, each flag writing into
// its Config field.
func (c *Config) Bind(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "addr", "127.0.0.1:8090", "listen address")
	fs.StringVar(&c.Upstream, "upstream", "", "llmsim service address (host:port); empty runs an in-process simulator")
	fs.BoolVar(&c.Sleep, "sleep", false, "in-process upstream only: simulate inference latency with real sleeps")
	fs.StringVar(&c.Model, "model", "", "path to a trained encoder saved by cmd/fltrain (overrides -arch)")
	fs.StringVar(&c.Arch, "arch", "mpnet-sim", "encoder architecture when no -model is given")
	fs.Int64Var(&c.Seed, "seed", 1, "weight init seed for an untrained encoder")

	fs.Float64Var(&c.Tau, "tau", 0.83, "similarity threshold τ")
	fs.Float64Var(&c.CtxTau, "ctx-tau", 0, "context-turn threshold (0 = same as -tau)")
	fs.IntVar(&c.TopK, "topk", core.DefaultTopK, "candidates context-checked per query")
	fs.IntVar(&c.Capacity, "tenant-capacity", 4096, "cache entries per tenant (0 = unbounded)")
	fs.Float64Var(&c.FeedbackStep, "feedback-step", 0.01, "τ increase per false-hit report (0 disables)")

	fs.IntVar(&c.Shards, "shards", server.DefaultShards, "tenant registry shards")
	fs.IntVar(&c.MaxTenants, "max-tenants", 0, "resident tenant bound (0 = unbounded)")
	fs.StringVar(&c.PersistDir, "persist-dir", "", "directory for evicted tenants' caches (empty = drop on eviction)")

	fs.BoolVar(&c.Cluster, "cluster", false, "cluster mode: shard tenants across peers on a consistent-hash ring")
	fs.StringVar(&c.Peers, "peers", "", "cluster: comma-separated peer addresses (host:port)")
	fs.IntVar(&c.VNodes, "vnodes", cluster.DefaultVNodes, "cluster: virtual nodes per ring member")
	fs.DurationVar(&c.ClusterHeartbeat, "cluster-heartbeat", cluster.DefaultHeartbeat, "cluster: peer health-probe period")
	fs.IntVar(&c.ClusterDeadAfter, "cluster-dead-after", cluster.DefaultDeadAfter, "cluster: consecutive probe failures before a peer is dead")

	fs.Float64Var(&c.Governor.Quota.Rate, "quota-rate", 0, "per-tenant admission quota in requests/second (0 disables quotas)")
	fs.Float64Var(&c.Governor.Quota.Burst, "quota-burst", 0, "per-tenant quota burst capacity (0 = same as -quota-rate)")
	fs.IntVar(&c.Governor.Limiter.MaxLimit, "limit-max", 0, "upstream AIMD concurrency limiter ceiling (0 disables the limiter)")
	fs.IntVar(&c.Governor.Limiter.MinLimit, "limit-min", 4, "limiter: concurrency floor the multiplicative decrease never goes below")
	fs.IntVar(&c.Governor.Limiter.MaxQueue, "limit-queue", 128, "limiter: bounded wait-queue depth; arrivals beyond it are shed with 503")
	fs.DurationVar(&c.UpstreamTimeout, "upstream-timeout", 0, "per-call upstream deadline on the miss path (0 = none)")
	fs.IntVar(&c.Governor.Breaker.Window, "breaker-window", 0, "upstream circuit-breaker outcome window (0 disables the breaker)")
	fs.Float64Var(&c.Governor.Breaker.FailureRatio, "breaker-threshold", 0.5, "breaker: windowed failure ratio that trips it open")
	fs.DurationVar(&c.Governor.Breaker.OpenFor, "breaker-cooloff", 5*time.Second, "breaker: open-state cool-off before half-open probes")
	fs.IntVar(&c.Governor.Breaker.HalfOpenProbes, "breaker-probes", 3, "breaker: half-open trial calls that must all succeed to close")
	fs.Float64Var(&c.TauDegraded, "tau-degraded", 0.05, "cache-only degraded serving: relax τ by this delta while the breaker is open (0 disables)")

	fs.Float64Var(&c.Trace.SampleRate, "trace-sample", 0, "request-trace head-sampling rate in (0, 1]; 0 disables tracing")
	fs.DurationVar(&c.Trace.SlowThreshold, "trace-slow", 0, "with tracing on, also keep any trace at least this slow (GET /v1/debug/traces)")

	fs.BoolVar(&c.FL, "fl", false, "enable the online federated-learning coordinator")
	fs.DurationVar(&c.FLInterval, "fl-interval", 0, "run FL rounds on this period (0 = only on POST /v1/fl/round)")
	fs.IntVar(&c.FLCohort, "fl-cohort", 4, "tenants sampled per FL round")
	fs.IntVar(&c.FLMinPairs, "fl-min-pairs", 8, "collected pairs a tenant needs to join a cohort")
	fs.IntVar(&c.FLEpochs, "fl-epochs", 2, "local fine-tuning epochs per round")
	fs.BoolVar(&c.FLSecure, "fl-secure", false, "aggregate through pairwise-masked updates (secure agg)")
	fs.StringVar(&c.FLDir, "fl-dir", "", "directory persisting model versions + collected shards (empty = in-memory)")
	fs.Float64Var(&c.FLBeta, "fl-beta", 0.5, "F-beta of the clients' threshold search")

	fs.StringVar(&c.Pprof, "pprof", "", "expose net/http/pprof on this side listener (e.g. 127.0.0.1:6060; empty = off)")
}

// Default is the shipped configuration: cacheserve with no arguments.
func Default() Config {
	var c Config
	c.Bind(flag.NewFlagSet("", flag.ContinueOnError))
	return c
}

// Stack is one assembled cacheserve. The exported fields are the parts
// callers drive or inspect; those cfg disables are nil.
type Stack struct {
	// Encoder is what tenants encode through: the model, or the FL
	// holder around it (with FL on).
	Encoder  embed.Encoder
	Governor *resilience.Governor
	Registry *server.Registry
	Server   *server.Server
	FL       *flserve.Service
	Node     *cluster.Node

	cfg     Config
	flStore *store.Store
	// The tenant template and the optional registry and server seams.
	// Their gate, hooks and observer interfaces are assigned
	// only when the implementation exists: a disabled feature must be a
	// true nil, not a typed nil pointer the callee would call into.
	tenant   core.Options
	hooks    server.TenantHooks
	observer server.Observer
}

// Build assembles the process cfg describes, short of listening (Handler
// serves it in-process, Serve binds cfg.Addr). On error whatever was
// already started is closed again.
func Build(cfg Config) (_ *Stack, err error) {
	if cfg.Cluster && cfg.PersistDir == "" {
		return nil, errors.New("-cluster requires -persist-dir (on storage all nodes share: tenant handoff travels through it)")
	}
	s := &Stack{cfg: cfg}
	defer func() {
		if err != nil {
			s.Close() // the build error is the one worth reporting
		}
	}()

	enc, err := loadEncoder(cfg)
	if err != nil {
		return nil, err
	}
	// With FL on, the base model serves through a swappable holder so
	// round rollouts can replace it atomically under live traffic.
	var swap *embed.Swappable
	var flArch embed.Arch
	var collector *flserve.Collector
	var flHooks *flserve.LateHooks
	if cfg.FL {
		m, ok := enc.(*embed.Model)
		if !ok || !m.Trainable() {
			return nil, fmt.Errorf("-fl requires a trainable encoder (got %s)", enc.Name())
		}
		flArch = m.Cfg
		swap = embed.NewSwappable(m)
		enc = swap
		collector = flserve.NewCollector(flserve.CollectorConfig{Seed: cfg.Seed})
		flHooks = &flserve.LateHooks{}
		s.hooks, s.observer = flHooks, collector
	}
	s.Encoder = enc

	// The resilience governor assembles whichever overload-protection
	// mechanisms cfg enables: per-tenant quotas at the front door, AIMD
	// limiter + circuit breaker on the upstream miss path (the Guard
	// below).
	s.Governor = resilience.NewGovernor(cfg.Governor)
	llm := newUpstream(cfg)
	if s.Governor.Limiter != nil || s.Governor.Breaker != nil || cfg.UpstreamTimeout > 0 {
		llm = resilience.NewGuard(llm, s.Governor, cfg.UpstreamTimeout)
	}

	// Tenants take core.New's index.
	log.Printf("index tiers at dim %d: flat up to %d entries, then ivf, rebuilt each time the tenant quadruples",
		enc.Dim(), index.DefaultFlatMax)
	s.tenant = core.Options{
		Encoder:          enc,
		LLM:              llm,
		Tau:              float32(cfg.Tau),
		CtxTau:           float32(cfg.CtxTau),
		TopK:             cfg.TopK,
		Capacity:         cfg.Capacity,
		FeedbackStep:     float32(cfg.FeedbackStep),
		DegradedTauDelta: float32(cfg.TauDegraded),
	}
	s.Registry, err = server.NewRegistry(server.RegistryConfig{
		Shards:     cfg.Shards,
		MaxTenants: cfg.MaxTenants,
		PersistDir: cfg.PersistDir,
		Factory:    func(string) *core.Client { return core.New(s.tenant) },
		Hooks:      s.hooks,
	})
	if err != nil {
		return nil, err
	}

	if cfg.FL {
		if cfg.FLDir != "" {
			s.flStore, err = store.Open(filepath.Join(cfg.FLDir, "flserve.store"))
			if err != nil {
				return nil, fmt.Errorf("opening FL store: %w", err)
			}
		}
		trainCfg := train.DefaultConfig()
		trainCfg.Epochs = cfg.FLEpochs
		s.FL, err = flserve.New(flserve.Config{
			Registry:   s.Registry,
			Collector:  collector,
			Encoder:    swap,
			Arch:       flArch,
			Store:      s.flStore,
			Train:      trainCfg,
			Beta:       cfg.FLBeta,
			Cohort:     cfg.FLCohort,
			MinPairs:   cfg.FLMinPairs,
			Secure:     cfg.FLSecure,
			InitialTau: cfg.Tau,
			Seed:       cfg.Seed,
			Interval:   cfg.FLInterval,
		})
		if err != nil {
			return nil, err
		}
		flHooks.Bind(s.FL)
	}

	// Observability: one shared metrics registry for every layer of this
	// process, and a tracer named after the cluster identity so stitched
	// spans attribute to the right node.
	metrics := obs.NewRegistry()
	trace := cfg.Trace
	if cfg.Cluster {
		trace.Node = cfg.Addr
	}
	tracer := obs.NewTracer(trace)

	s.Server, err = server.New(server.Config{
		Registry: s.Registry,
		Observer: s.observer,
		Metrics:  metrics,
		Tracer:   tracer,
		Governor: s.Governor,
	})
	if err != nil {
		return nil, err
	}

	if cfg.Cluster {
		var peers []string
		for _, p := range strings.Split(cfg.Peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		s.Node, err = cluster.New(cluster.Config{
			Self:      cfg.Addr,
			Peers:     peers,
			VNodes:    cfg.VNodes,
			Registry:  s.Registry,
			Heartbeat: cfg.ClusterHeartbeat,
			DeadAfter: cfg.ClusterDeadAfter,
			Logf:      log.Printf,
			Tracer:    tracer,
			// Peer forwards share the upstream breaker's tuning, and
			// hedged duplicates are suppressed while the local limiter is
			// saturated — an overloaded node must not multiply its load.
			HedgeVeto:   s.Governor.Saturated,
			PeerBreaker: cfg.Governor.Breaker,
		})
		if err != nil {
			return nil, err
		}
		s.Node.Register(s.Server)
		s.Server.Wrap(s.Node.Wrap)
		s.Node.RegisterMetrics(metrics)
	}
	if s.FL != nil {
		s.FL.RegisterMetrics(metrics)
		s.FL.Register(s.Server)
		s.FL.Start()
	}
	return s, nil
}

// loadEncoder resolves the base encoder: the caller's, a trained model
// from disk, or an untrained one of the named architecture.
func loadEncoder(cfg Config) (embed.Encoder, error) {
	if cfg.Encoder != nil {
		return cfg.Encoder, nil
	}
	if cfg.Model == "" {
		a, err := embed.ArchByName(cfg.Arch)
		if err != nil {
			return nil, err
		}
		return embed.NewModel(a, cfg.Seed), nil
	}
	f, err := os.Open(cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("opening model: %w", err)
	}
	defer f.Close()
	m, err := embed.Load(f)
	if err != nil {
		return nil, fmt.Errorf("loading model: %w", err)
	}
	return m, nil
}

// newUpstream resolves the LLM service: the caller's, a network llmsim,
// or an in-process simulator (virtual time unless cfg.Sleep).
func newUpstream(cfg Config) core.LLM {
	if cfg.LLM != nil {
		return cfg.LLM
	}
	if cfg.Upstream != "" {
		return llmsim.NewClient(cfg.Upstream)
	}
	sim := llmsim.DefaultConfig()
	sim.Sleep = cfg.Sleep
	return llmsim.New(sim)
}

// Handler serves the stack in-process, cluster routing included.
func (s *Stack) Handler() http.Handler { return s.Server.Handler() }

// Serve binds cfg.Addr and, in cluster mode, starts the membership loops.
func (s *Stack) Serve() error {
	if err := s.Server.Serve(s.cfg.Addr); err != nil {
		return err
	}
	if s.Node != nil {
		s.Node.Start()
	}
	return nil
}

// Close shuts down in dependency order: listener, cluster loops, FL
// rounds (persisting their shards), a flush of every resident tenant to
// PersistDir, and only then the FL store. It works on a partly built
// stack and reports every step that failed.
func (s *Stack) Close() error {
	var errs []error
	failed := func(step string, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", step, err))
		}
	}
	if s.Server != nil {
		// Fails only on the 2s drain deadline (a client kept a connection
		// open); the flush below must run either way.
		_ = s.Server.Close()
	}
	if s.Node != nil {
		s.Node.Close()
	}
	if s.FL != nil {
		failed("closing FL coordinator", s.FL.Close())
	}
	if s.Registry != nil && s.cfg.PersistDir != "" {
		failed("flushing resident tenants", s.Registry.Flush())
	}
	if s.flStore != nil {
		failed("closing FL store", s.flStore.Close())
	}
	return errors.Join(errs...)
}
