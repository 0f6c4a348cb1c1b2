package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"repro/internal/llmsim"
	"repro/internal/resilience"
	"repro/internal/stack"
)

// The overload scenario is the degraded-serving acceptance run: a full
// cacheserve stack (registry, governor, guarded llmsim upstream in real
// sleep mode) runs inside this process so the harness can turn the
// upstream's degradation knobs mid-run. Five driven phases:
//
//	warmup    populate every tenant's cache (healthy upstream)
//	baseline  healthy probe traffic — measures serving capacity and the
//	          unloaded hit-path p99 the gates compare against
//	brownout  the upstream slows 4×; the AIMD limiter must detect the
//	          congestion, shrink the upstream concurrency, and shed the
//	          overflow with 503 saturated instead of queueing into it
//	outage    the upstream fails outright under ≥10× offered load; the
//	          circuit breaker must trip and the node must keep serving
//	          cache hits at capacity while shedding misses with
//	          503 breaker_open + Retry-After
//	heal      the upstream recovers; half-open probes must re-close the
//	          breaker and full serving must resume
//
// Gates: offered load during the outage reaches overloadFactor × the
// healthy capacity, served throughput stays within the retention floor
// of capacity, the hit-path p99 stays under the inflation ceiling, the
// limiter sheds the brown-out overflow, the breaker demonstrably trips
// open (asserted via /metrics) and recovers after the upstream heals,
// and no phase sees a single transport error, panic, or unexpected
// status.
const (
	// overloadFactor is the offered-load multiple of healthy capacity
	// the outage phase must reach.
	overloadFactor = 10
	// overloadDup is the duplicate fraction of probe traffic: cache-only
	// serving needs hits to serve.
	overloadDup = 0.6
	// overloadRetention is the served-throughput floor during the
	// outage, as a fraction of healthy capacity.
	overloadRetention = 0.9
	// overloadLatencyX is the hit-path p99 inflation ceiling during the
	// outage, × the unloaded p99.
	overloadLatencyX = 5.0
)

func runOverload(e env) ([]gate, error) {
	// The upstream sleeps for real so healthy capacity is genuinely
	// upstream-bound (~100 ms per miss): the outage phase then offers a
	// large multiple of it even on a small CI machine. Latencies are cut
	// well below llmsim's paper-faithful defaults to keep the run short.
	sim := llmsim.New(llmsim.Config{
		BaseLatency: 75 * time.Millisecond,
		PerToken:    2 * time.Millisecond,
		JitterFrac:  0.1,
		MaxTokens:   50,
		Sleep:       true,
		Seed:        e.seed,
	})

	// A stack.Default() cacheserve apart from what follows; the scenario
	// keeps the simulator to slow and fail it mid-run.
	cfg := stack.Default()
	cfg.LLM = sim
	cfg.Seed = e.seed
	cfg.Metrics = true // the breaker gates are asserted against /metrics
	// The limiter starts at its ceiling (no cold-start throttling of the
	// healthy baseline) and adapts downward under congestion.
	cfg.Governor.Limiter = resilience.LimiterConfig{
		MinLimit: 4, MaxLimit: 32, InitialLimit: 32, MaxQueue: 32,
	}
	// A short window and cool-off so the trip and the recovery both land
	// inside a CI-sized run.
	cfg.Governor.Breaker = resilience.BreakerConfig{
		Window: 20, FailureRatio: 0.5,
		OpenFor: 400 * time.Millisecond, HalfOpenProbes: 3,
	}
	// τ below the serving default: the untrained encoder must produce a
	// healthy duplicate hit rate for cache-only serving to have anything
	// to serve; the cache-only retry relaxes it by 0.10, not the shipped
	// 0.05, so near-τ duplicates are served degraded during the outage
	// (the report counts them).
	cfg.Tau = 0.70
	cfg.TauDegraded = 0.10
	st, err := stack.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("building stack: %w", err)
	}
	defer st.Close()
	hts := httptest.NewServer(st.Handler())
	defer hts.Close()
	t := newTarget(e.timeout, hts.URL)

	// Phases: baseline / brownout / outage (overloadFactor× volume) / heal.
	warmup, phases := buildJobs(e.seed, e.users, e.cached, overloadDup,
		e.probes, e.probes, overloadFactor*e.probes, e.probes)

	log.Printf("overload scenario: %d users, %d workers healthy, %d probes/user/phase, outage at %d× volume",
		e.users, e.concurrency, e.probes, overloadFactor)
	warm := newPhase()
	t.run(warm, warmup, e.concurrency, nil)
	if warm.failed() > 0 {
		return nil, fmt.Errorf("warmup not fully served: %s", warm.failures())
	}

	log.Printf("baseline (healthy): %d probes at %d workers", len(phases[0]), e.concurrency)
	base := newPhase()
	t.run(base, phases[0], e.concurrency, nil)
	capacity := base.rate(base.served)

	// Brown-out: the upstream slows 4× while the offered load jumps to
	// overloadFactor× the healthy worker pool — the limiter, not a
	// queue, must absorb the difference.
	sim.SetSlowdown(4)
	brownWorkers := overloadFactor * e.concurrency
	log.Printf("brown-out (upstream 4× slower): %d probes at %d workers", len(phases[1]), brownWorkers)
	brown := newPhase()
	t.run(brown, phases[1], brownWorkers, nil)
	brownScrape, _ := t.scrape()

	// Outage: the upstream fails outright. The worker pool is kept at a
	// moderate multiple — beyond CPU saturation extra closed-loop workers
	// only queue client-side — while the offered-load gate is asserted on
	// the measured rate, which must still reach overloadFactor× capacity
	// because shed responses return in microseconds, not upstream
	// milliseconds.
	sim.SetFailing(true)
	outageWorkers := 3 * e.concurrency
	log.Printf("outage (upstream failing): %d probes at %d workers", len(phases[2]), outageWorkers)
	out := newPhase()
	t.run(out, phases[2], outageWorkers, nil)
	outScrape, _ := t.scrape()

	// Heal: the upstream recovers; after the breaker's cool-off its
	// half-open probes must see the recovery and re-close it. The breaker
	// is primed back to closed with a trickle of sequential unique-miss
	// probes from a dedicated tenant before the measured phase —
	// production traffic arriving after an upstream heals finds the
	// breaker already re-closed by the requests before it, and the gate
	// is that full serving then resumes. Probes that land while the
	// breaker is still in its cool-off shed instantly, so the loop paces
	// itself.
	sim.SetFailing(false)
	sim.SetSlowdown(1)
	primeAttempts, recovered := 0, false
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(20 * time.Millisecond) {
		if s, err := t.scrape(); err == nil && s.exp != nil && s.metric(breakerState, nil) == 0 {
			recovered = true
			break
		}
		primeAttempts++
		t.send(job{user: "heal-probe", text: fmt.Sprintf("recovery probe %d", primeAttempts)})
	}
	log.Printf("heal (upstream recovered): breaker re-closed after %d probes (ok=%v); %d probes at %d workers",
		primeAttempts, recovered, len(phases[3]), e.concurrency)
	heal := newPhase()
	t.run(heal, phases[3], e.concurrency, nil)
	endScrape, _ := t.scrape()

	fmt.Printf("\n=== overload degraded-serving report (%d users, capacity %.0f served/s) ===\n",
		e.users, capacity)
	base.report("baseline")
	brown.report("brownout")
	out.report("outage")
	heal.report("heal")
	fmt.Printf("limiter          limit %.0f after brown-out (%.0f decreases), saturated sheds %d\n",
		brownScrape.metric("meancache_limiter_limit", nil),
		brownScrape.metric("meancache_limiter_decreases_total", nil), brown.sheds["saturated"])
	fmt.Printf("breaker          state %s during outage, %.0f trips, breaker_open sheds %d, degraded hits %.0f\n",
		breakerStateName(outScrape), outScrape.metric(breakerOpens, nil),
		out.sheds["breaker_open"], outScrape.metric("meancache_degraded_hits_total", nil))
	fmt.Printf("after heal       breaker state %s\n", breakerStateName(endScrape))

	unexpected, firstBad := 0, ""
	for _, p := range []*phase{warm, base, brown, out, heal} {
		unexpected += p.unexpected
		if firstBad == "" {
			firstBad = p.firstBad
		}
	}
	offered := out.rate(out.queries) // every request the closed loop pushed, served or shed
	baseP99, outP99 := base.hitLat.Percentile(99), out.hitLat.Percentile(99)
	return []gate{
		check("clean run", unexpected == 0, "%d unexpected errors (first: %s)", unexpected, firstBad),
		check("healthy baseline", base.failed() == 0, "%d/%d served, %d shed", base.served, base.queries, base.shedTotal()),
		check("offered load", offered >= overloadFactor*capacity,
			"%.0f req/s = %.1f× capacity (gate ≥ %d×)", offered, offered/capacity, overloadFactor),
		check("limiter brown-out", brown.sheds["saturated"] > 0, "%d saturated sheds", brown.sheds["saturated"]),
		check("served throughput", out.rate(out.served) >= overloadRetention*capacity,
			"%.0f served/s vs capacity %.0f (gate ≥ %.0f%%)", out.rate(out.served), capacity, 100*overloadRetention),
		check("hit-path p99", baseP99 > 0 && outP99 < time.Duration(overloadLatencyX*float64(baseP99)),
			"%v under outage vs %v unloaded (gate < %.0f×)", outP99, baseP99, overloadLatencyX),
		check("breaker trips", outScrape.metric(breakerOpens, nil) >= 1 &&
			outScrape.metric(breakerState, nil) >= 1 && out.sheds["breaker_open"] > 0,
			"%.0f trips, state %s, %d breaker_open sheds",
			outScrape.metric(breakerOpens, nil), breakerStateName(outScrape), out.sheds["breaker_open"]),
		check("cache-only serving", out.hits > 0, "%d hits served during the outage (%d degraded)", out.hits, out.degraded),
		check("breaker recovers", recovered && endScrape.exp != nil && endScrape.metric(breakerState, nil) == 0 &&
			heal.failed() == 0,
			"re-closed after %d probes, state %s after heal, %d/%d served, %d upstream errors",
			primeAttempts, breakerStateName(endScrape), heal.served, heal.queries, heal.upstream),
	}, nil
}

// The governor's state on /metrics, the authoritative surface the
// gates assert breaker behaviour against.
const (
	breakerState = "meancache_breaker_state" // 0 closed, 1 half-open, 2 open
	breakerOpens = "meancache_breaker_opens_total"
)

func breakerStateName(s snapshot) string {
	switch {
	case s.exp == nil:
		return "unknown (no /metrics)"
	case s.metric(breakerState, nil) == 0:
		return "closed"
	case s.metric(breakerState, nil) == 1:
		return "half_open"
	default:
		return "open"
	}
}
