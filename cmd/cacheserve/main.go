// Command cacheserve runs the multi-tenant semantic-cache serving layer
// internal/stack defines (its package comment explains every flag): bind
// stack.Config to the command line, build, serve until SIGINT or SIGTERM,
// close in order (resident tenants are flushed to -persist-dir).
//
// Usage:
//
//	cacheserve -addr 127.0.0.1:8090 -upstream 127.0.0.1:8080
//	cacheserve -fl -fl-interval 30s -fl-dir /var/lib/cacheserve/fl
//	cacheserve -addr 10.0.0.1:8090 -cluster -peers 10.0.0.2:8090,10.0.0.3:8090 \
//	    -vnodes 128 -persist-dir /mnt/shared/tenants
//	curl -X POST localhost:8090/v1/query -d '{"user":"u1","query":"what is FL?"}'
//	curl -X POST localhost:8090/v1/fl/round
//	curl localhost:8090/v1/fl/status
//	curl localhost:8090/v1/stats
//	curl localhost:8090/metrics
package main

import (
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux (side listener only)
	"os"
	"os/signal"
	"syscall"

	"repro/internal/stack"
)

func main() {
	var cfg stack.Config
	cfg.Bind(flag.CommandLine)
	flag.Parse()
	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

// run serves cfg until a shutdown signal; a failure comes back after
// whatever was built has been closed.
func run(cfg stack.Config) error {
	// Installed before anything is built or announced: a signal that
	// beats Notify kills the process with nothing flushed. One that lands
	// during Build waits in the channel and shuts the stack down as soon
	// as it is up. SIGTERM (kill, docker stop, systemd) takes ^C's path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if cfg.Pprof != "" {
		// The profiler gets its own listener so profiling traffic (and the
		// default mux it registers on) never mixes with the serving API.
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", cfg.Pprof)
			if err := http.ListenAndServe(cfg.Pprof, nil); err != nil {
				log.Printf("pprof listener failed: %v", err)
			}
		}()
	}
	if cfg.Model == "" {
		log.Printf("warning: serving with an untrained %s encoder; pass -model for a trained one", cfg.Arch)
	}
	upstream := cfg.Upstream
	if upstream == "" {
		upstream = "in-process"
		log.Printf("using in-process simulated LLM upstream (sleep=%v)", cfg.Sleep)
	}

	st, err := stack.Build(cfg)
	if err != nil {
		return err
	}
	if err := st.Serve(); err != nil {
		st.Close()
		return err
	}
	if st.FL != nil {
		log.Printf("online FL coordinator enabled (cohort=%d, min-pairs=%d, interval=%v, secure=%v)",
			cfg.FLCohort, cfg.FLMinPairs, cfg.FLInterval, cfg.FLSecure)
	}
	if st.Node != nil {
		log.Printf("cluster mode: self=%s, peers=%v, vnodes=%d, heartbeat=%v",
			cfg.Addr, cfg.Peers, cfg.VNodes, cfg.ClusterHeartbeat)
	}
	if cfg.Trace.SampleRate > 0 {
		log.Printf("tracing: trace-sample=%g, trace-slow=%v", cfg.Trace.SampleRate, cfg.Trace.SlowThreshold)
	}
	if g := st.Governor; g.Quotas != nil || g.Limiter != nil || g.Breaker != nil {
		log.Printf("resilience: quota-rate=%g limit-max=%d breaker-window=%d upstream-timeout=%v tau-degraded=%g",
			cfg.Governor.Quota.Rate, cfg.Governor.Limiter.MaxLimit, cfg.Governor.Breaker.Window,
			cfg.UpstreamTimeout, cfg.TauDegraded)
	}
	log.Printf("cacheserve listening on %s (encoder=%s, shards=%d, upstream=%s)",
		st.Server.Addr(), st.Encoder.Name(), cfg.Shards, upstream)

	<-sig
	agg := st.Server.Stats().Aggregate
	log.Printf("shutting down: %d queries, %d hits (%.1f%% hit ratio), %d resident tenants",
		agg.Queries, agg.Hits, 100*agg.HitRatio, st.Registry.Resident())
	if st.FL != nil {
		if rec, ok := st.FL.Models().Latest(); ok {
			log.Printf("online FL: model version %s (tau=%.3f) after rollouts %+v",
				rec.Version, rec.Tau, st.FL.RolloutSnapshot())
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	if cfg.PersistDir != "" {
		log.Printf("flushed %d resident tenants to %s", st.Registry.Resident(), cfg.PersistDir)
	}
	return nil
}
