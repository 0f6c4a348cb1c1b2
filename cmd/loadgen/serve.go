package main

import (
	"fmt"
	"log"
	"time"
)

// runServe drives a running cacheserve: a warmup phase populates every
// user's cache, a probe phase measures serving behaviour. /v1/stats and
// /metrics are scraped at each phase boundary; the stage breakdown is
// the difference between two scrapes.
func runServe(e env) ([]gate, error) {
	t := newTarget(e.timeout, "http://"+e.addr)
	if err := t.waitHealthy(0); err != nil {
		return nil, fmt.Errorf("server at %s: %w", e.addr, err)
	}
	if e.flRounds > 0 {
		return runFL(t, e)
	}

	log.Printf("generating workloads for %d users (%d warmup + %d probes each, %.0f%% duplicates)",
		e.users, e.cached, e.probes, 100*e.dup)
	warmup, phases := buildJobs(e.seed, e.users, e.cached, e.dup, e.probes)

	preWarm, err := t.scrape()
	if err != nil {
		return nil, err
	}
	log.Printf("warmup: %d queries", len(warmup))
	warm := newPhase()
	t.run(warm, warmup, e.concurrency, nil)
	postWarm, err := t.scrape()
	if err != nil {
		return nil, err
	}

	log.Printf("measuring: %d probes at concurrency %d", len(phases[0]), e.concurrency)
	p := newPhase()
	t.run(p, phases[0], e.concurrency, nil)
	postProbe, err := t.scrape()
	if err != nil {
		return nil, err
	}

	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	fmt.Printf("\n=== loadgen report ===\n")
	fmt.Printf("users            %d\n", e.users)
	fmt.Printf("warmup           %d queries (%d errors)\n", warm.queries, warm.failed())
	fmt.Printf("probes           %d queries in %v (%.1f qps)\n",
		p.queries, p.duration.Round(time.Millisecond), p.rate(p.queries))
	fmt.Printf("errors           %d\n", p.failed())
	fmt.Printf("hit ratio        %.1f%% (%d hits)\n", 100*ratio(p.hits, p.served), p.hits)
	fmt.Printf("cache decisions  precision %.3f  recall %.3f  F1 %.3f  accuracy %.3f\n",
		p.confusion.Precision(), p.confusion.Recall(), p.confusion.F1(), p.confusion.Accuracy())
	pct := p.latency.Percentiles(50, 95, 99)
	fmt.Printf("latency          mean %v  p50 %v  p95 %v  p99 %v\n",
		us(p.latency.Mean()), us(pct[0]), us(pct[1]), us(pct[2]))
	st := postProbe.stats
	fmt.Printf("server aggregate %d queries, hit ratio %.1f%%, handler mean %dµs, search mean %dµs\n",
		st.Aggregate.Queries, 100*st.Aggregate.HitRatio, st.Aggregate.MeanMicros, st.Aggregate.SearchMicros)
	fmt.Printf("server registry  %d resident tenants, %d activations, %d evictions\n",
		st.Registry.Resident, st.Registry.Activations, st.Registry.Evictions)
	if bd := stageBreakdown(postWarm, postProbe); bd != "" {
		fmt.Printf("server stages    %s (mean per request, probe phase)\n", bd)
	}
	if bd := stageBreakdown(preWarm, postWarm); bd != "" {
		fmt.Printf("                 %s (warmup phase)\n", bd)
	}
	return []gate{
		check("clean run", warm.failed() == 0 && p.failed() == 0,
			"warmup %s, probes %s", warm.failures(), p.failures()),
	}, nil
}
