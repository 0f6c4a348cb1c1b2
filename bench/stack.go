package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/llmsim"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/store"
)

// stack is a serving stack assembled in-process from the public
// constructors cmd/cacheserve's main calls, with cacheserve's default
// flag values, so the traced replay measures the program that ships.
type stack struct {
	srv           *server.Server
	reg           *server.Registry
	batcher       *server.Batcher
	searchBatcher *server.SearchBatcher
}

// newStack mirrors cacheserve's wiring for `-model m -tau tau
// [-max-tenants n] [-persist-dir dir]`. With a tracer, a timing
// decorator sits on every public seam; without one the stack is plain.
// Keep the literals below equal to cmd/cacheserve's flag defaults:
// trace.overhead_frac absorbs any drift and will show it.
func newStack(model *embed.Model, tau float64, maxTenants int, persistDir string, tr *tracer) (*stack, error) {
	s := &stack{}
	var enc embed.Encoder = model
	if tr != nil {
		enc = tracedModel{m: model, t: tr}
	}
	s.batcher = server.NewBatcher(enc, server.BatcherConfig{MaxBatch: 32, MaxWait: 200 * time.Microsecond})
	enc = s.batcher
	s.searchBatcher = server.NewSearchBatcher(server.BatcherConfig{MaxBatch: 32, MaxWait: 0})
	var searcher cache.Searcher = s.searchBatcher
	var llm core.LLM = llmsim.New(llmsim.DefaultConfig())
	var fs store.FS // nil = store.OS
	if tr != nil {
		enc = tracedBatcher{b: s.batcher, t: tr}
		searcher = tracedSearcher{s: s.searchBatcher, t: tr}
		llm = tracedLLM{s: llm.(*llmsim.Service), t: tr}
		fs = tracedFS{fs: store.OS, t: tr}
	}
	gov := resilience.NewGovernor(resilience.GovernorConfig{
		Limiter:           resilience.LimiterConfig{MinLimit: 4, MaxQueue: 128},
		Breaker:           resilience.BreakerConfig{FailureRatio: 0.5, OpenFor: 5 * time.Second, HalfOpenProbes: 3},
		MaintenanceWeight: 2,
	})
	factory := server.TenantFactory(func(string) *core.Client {
		return core.New(core.Options{
			Encoder:          enc,
			LLM:              llm,
			Tau:              float32(tau),
			TopK:             5,
			Capacity:         4096,
			FeedbackStep:     0.01,
			DegradedTauDelta: 0.05,
			MaintenanceGate:  gov.Maintenance,
			Searcher:         searcher,
		})
	})
	if tr != nil {
		factory = tr.factory(factory)
	}
	var err error
	s.reg, err = server.NewRegistry(server.RegistryConfig{
		Shards:     16,
		MaxTenants: maxTenants,
		PersistDir: persistDir,
		Factory:    factory,
		FS:         fs,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv, err = server.New(server.Config{
		Registry:      s.reg,
		Batcher:       s.batcher,
		SearchBatcher: s.searchBatcher,
		StatsTenants:  20,
		Tracer:        obs.NewTracer(obs.TracerConfig{Node: "local"}),
		Governor:      gov,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	if tr != nil {
		tr.shardOf = s.reg.ShardFor
		s.srv.Wrap(tr.middleware)
	}
	if err := s.srv.Serve("127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	s.batcher.Close()
	s.searchBatcher.Close()
}

// loadModel reads the trained encoder the way cacheserve's -model does.
func loadModel(path string) (*embed.Model, error) {
	f, err := os.Open(path)
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
