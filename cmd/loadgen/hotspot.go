package main

import (
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/stack"
)

// The hotspot scenario is the search-batcher acceptance run: traffic is
// skewed onto one hot tenant with a Zipf draw, so concurrent queries
// pile up against a single large cache — exactly the shape the
// per-tenant search batcher exists for. Two in-process cacheserve
// stacks, identical except that one wires the SearchBatcher into the
// lookup path, are warmed with the same entries and then driven with
// the same probe stream, head to head.
//
// The batched stack is the shipped one. Its batcher has no dispatcher and
// never waits for company: a search parks only while as many searches of
// its cache as there are processors are already in flight, and the first
// of those to finish hands what parked to its first member. On a 2-core
// box 3,101–3,866 of 24,624 searches shared a pass over three runs here
// (27–54 behind the old dispatcher): how many coalesced is reported, not
// gated. That overlapping searches do share a pass is pinned with exact
// counts by internal/server's TestSearchBatcher tests; what this run
// gates is that the batcher costs a hot tenant nothing and changes no
// answer (the three runs read 1.01×, 0.98× and 1.02×). The run counts
// quoted below were taken while the batched stack still gathered behind
// a 200µs timer at MaxBatch 8, a configuration no default ever shipped;
// they calibrate the sampling method, which is unchanged.
//
// A single unbatched run followed by a single batched run put the p99
// comparison on ~1,260 hit samples per side taken seconds apart, and
// read 1.18, 0.91, 1.16, 1.02 over four runs of one binary on 2 cores.
// A hit's round trip here is mostly queueing behind 23 other in-flight
// requests, so the tail is set by scheduling stalls that arrive in
// bursts: the same stack's p99 over 500 consecutive hits swings between
// 75 and 370 ms within one run, and a p99 pooled over a whole run is
// decided by which side the few worst bursts happened to land on (two
// identical unbatched stacks compared that way read 0.94–1.04, a
// batched against an unbatched one 0.72–1.18). The comparison is made
// robust by how it samples, not by a wider allowance:
//
//   - The probes are sent once fresh (the cold pass: novel probes miss
//     and are inserted, which is where hit parity can drift) and then
//     hotReplays more times (the steady passes: every probe now hits its
//     own entry, the caches stop growing, and every request is a
//     hit-path sample).
//   - The stacks take turns at slices of hotSlice probes (U B, B U, …),
//     so both see the same machine from second to second.
//   - The gated figure is therefore not one p99 of all hits but, per
//     side, the median over its steady slices of the slice's hit-RTT
//     p99: 32 slices of 500 hits each, where a burst can spoil a slice
//     but not the figure. 35 consecutive runs read 0.82–1.09 this way,
//     some with `go test ./...` competing for the two cores, and a
//     100 ms stall put into one in twenty coalesced passes reads
//     1.33–1.67. It is not proof against the box itself: in an hour when
//     the guest ran 1.5× slower (a single-threaded spin loop at 230 ms
//     instead of 148, the unbatched figure at 130 ms and above instead
//     of 77–115) 4 of 9 runs read 1.12, 1.13, 1.14 and 1.24; why a
//     slower box costs the batched tail more was not established. The
//     11 runs after it recovered read 0.85–0.95.
//   - A median is blind to a regression confined to a minority of the
//     slices, so the gate also bounds the 90th percentile of the slice
//     p99s (the 4th worst of 32) at hotBurstX × the unbatched one. That
//     figure is noisy (0.90–1.20 over 30 runs, hence the wide bound),
//     so it only catches gross bursts: with every coalesced pass
//     stalled for 1.5 s out of every 10 s, a 300 ms stall reads 3.06×
//     there (median 1.17×), a 100 ms one 1.45× (median 1.09×), which
//     passes. Nothing measurable in 70 s on this box separates the
//     latter from its run-to-run noise.
//
// Gates: both stacks clean, duplicate probes of the cold pass hit
// identically in both stacks within 1% (MultiSearch parity observed end
// to end, not just in unit tests; the steady passes are left out because
// there every probe hits its own entry in both stacks by construction),
// and the batched hit-path p99 (as defined above) is at most
// hotLatencyX × the unbatched one.
const (
	hotTenants     = 12   // tenant 0 is the hot one
	hotCached      = 48   // warmup entries per cold tenant
	hotCachedHot   = 4096 // warmup entries for the hot tenant (bigger = longer scans)
	hotProbes      = 4000 // fresh probes across all tenants (the cold pass)
	hotReplays     = 4    // times the same probes are sent again (the steady passes)
	hotSlice       = 500  // probes a stack takes before the other has its turn
	hotDup         = 0.95
	hotTau         = 0.80 // serving threshold (higher prunes more of the scan)
	hotConcurrency = 24   // the burst
	hotSkew        = 2.5  // Zipf s of the tenant draw (>1; higher = hotter hot tenant)
	// hotLatencyX is the batched hit-path p99 ceiling, × the unbatched
	// p99. The allowance absorbs scheduler noise on shared 2-core
	// runners; the batcher typically lands within a few percent either
	// side.
	hotLatencyX = 1.10
	// hotBurstX is the same ceiling for the 90th percentile of the slice
	// p99s, which catches what the median cannot see.
	hotBurstX = 1.5
	// hotParity is the tolerated duplicate-hit disagreement between the
	// stacks. Duplicate probes target entries warmed before any probe
	// ran, so their hits are arrival-order independent — except for the
	// handful of near-τ paraphrases that only hit via a novel probe
	// inserted earlier, whose presence depends on closed-loop arrival
	// order. A batching correctness bug (wrong scores, dropped matches)
	// moves hits by far more.
	hotParity = 0.01
)

// hotspotJobs builds the warmup and the fresh probes. The hot tenant
// (index 0) gets a much larger warmed cache so its scans are long
// enough to overlap under burst; every tenant's probe pool is sized for
// the worst case (the Zipf draw routing every probe to it). Tenant
// choice per probe is a Zipf draw, so the hot tenant soaks up most of
// the burst while the tail keeps the cross-tenant mix honest (groups
// must partition by cache). hotShare is the fraction it drew.
func hotspotJobs(seed int64) (warmup, probes []job, hotShare float64) {
	pools := make([][]dataset.Probe, hotTenants)
	for u := range pools {
		n := hotCached
		if u == 0 {
			n = hotCachedHot
		}
		cfg := dataset.DefaultConfig()
		cfg.Seed = seed + int64(u)*7919
		w := dataset.GenerateCacheWorkload(cfg, n, hotProbes, hotDup)
		pools[u] = w.Probes
		for _, q := range w.Cached {
			warmup = append(warmup, job{user: userName(u), text: q})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(warmup), func(i, j int) { warmup[i], warmup[j] = warmup[j], warmup[i] })

	zipf := rand.NewZipf(rng, hotSkew, 1, hotTenants-1)
	cursor := make([]int, hotTenants)
	for i := 0; i < hotProbes; i++ {
		u := int(zipf.Uint64())
		p := pools[u][cursor[u]]
		cursor[u]++
		probes = append(probes, job{user: userName(u), text: p.Text, dup: p.DupOf >= 0})
	}
	return warmup, probes, float64(cursor[0]) / hotProbes
}

// newHotspotStack starts one in-process cacheserve instance; batched
// selects whether the SearchBatcher is wired into the tenant factory.
func newHotspotStack(e env, batched bool) (t *target, stop func(), err error) {
	// A stack.Default() cacheserve (virtual-time upstream: misses cost no
	// wall clock) apart from what follows.
	cfg := stack.Default()
	cfg.Seed = e.seed
	cfg.Tau = hotTau
	// Capacity holds every warmed entry plus every novel probe the hot
	// tenant can absorb, so hit parity cannot be skewed by eviction.
	cfg.Capacity = hotCachedHot + hotProbes + 64
	cfg.NoSearchBatch = !batched
	st, err := stack.Build(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("building stack: %w", err)
	}
	hts := httptest.NewServer(st.Handler())
	return newTarget(e.timeout, hts.URL), func() {
		hts.Close()
		st.Close()
	}, nil
}

func runHotspot(e env) ([]gate, error) {
	warmup, probes, hotShare := hotspotJobs(e.seed)
	log.Printf("hotspot scenario: %d tenants, hot tenant holds %d entries and draws %.0f%% of %d probes (skew %.2f), sent 1+%d times, %d workers",
		hotTenants, hotCachedHot, 100*hotShare, hotProbes, hotSkew, hotReplays, hotConcurrency)

	// Index 0 is the unbatched stack, 1 the batched one; phases[i] pools
	// all of stack i's slices, cold[i] those of the cold pass only.
	names := [2]string{"unbatched", "batched"}
	var stacks [2]*target
	phases := [2]*phase{newPhase(), newPhase()}
	cold := [2]*phase{newPhase(), newPhase()}
	var sliceP99 [2]metrics.LatencyRecorder // hit-RTT p99 of each steady slice
	for i, name := range names {
		t, stop, err := newHotspotStack(e, i == 1)
		if err != nil {
			return nil, err
		}
		defer stop()
		warm := newPhase()
		t.run(warm, warmup, hotConcurrency, nil)
		if warm.failed() > 0 {
			return nil, fmt.Errorf("%s warmup: %s", name, warm.failures())
		}
		stacks[i] = t
	}
	for pass := 0; pass <= hotReplays; pass++ {
		for at := 0; at < len(probes); at += hotSlice {
			first := at / hotSlice % 2 // alternate which stack goes first
			for _, i := range []int{first, 1 - first} {
				t, pooled, slice := stacks[i], phases[i], newPhase()
				pooled.duration += drive(probes[at:at+hotSlice], hotConcurrency, func(j job) {
					o := t.send(j)
					pooled.record(j, o)
					slice.record(j, o)
					if pass == 0 {
						cold[i].record(j, o)
					}
				}, nil)
				if pass > 0 {
					sliceP99[i].Record(slice.hitRTT.Percentile(99))
				}
			}
		}
	}
	direct, batched := phases[0], phases[1]

	fmt.Printf("\n=== hotspot search-batching report (%d tenants, %d probes sent 1+%d times) ===\n",
		hotTenants, hotProbes, hotReplays)
	direct.report("unbatched")
	batched.report("batched")
	// The coalescing counters come from /v1/stats — the same surface
	// operators see.
	if s, err := stacks[1].scrape(); err == nil && s.stats.SearchBatcher != nil {
		sb := s.stats.SearchBatcher
		fmt.Printf("batcher          %d searches in %d passes (mean %.2f, %d coalesced)\n",
			sb.Requests, sb.Batches, sb.MeanBatch, sb.Coalesced)
	}

	// The p99 gate compares the client-observed hit round trip: on an
	// oversubscribed box the batcher's channel handoffs move queueing
	// that clients pay anyway from the accept queue into the server-side
	// measurement window, so the server-reported serving time would
	// penalise batching for latency the client never sees twice.
	direct99, batched99 := sliceP99[0].Percentiles(0, 50, 90, 100), sliceP99[1].Percentiles(0, 50, 90, 100)
	for i, pct := range [][]time.Duration{direct99, batched99} {
		fmt.Printf("%-12s hit RTT p99 per steady slice: median %v, p90 %v (min %v, max %v) over %d slices of %d probes\n",
			names[i], pct[1], pct[2], pct[0], pct[3], sliceP99[i].Count(), hotSlice)
	}
	x := func(q int) float64 { return float64(batched99[q]) / float64(max(direct99[q], 1)) }
	// Parity is judged on the cold pass alone: a replayed probe hits its
	// own entry in both stacks, which would only dilute the drift.
	coldDirect, coldBatched := cold[0].dupHits, cold[1].dupHits
	drift := 1.0
	if coldDirect > 0 {
		drift = float64(max(coldBatched-coldDirect, coldDirect-coldBatched)) / float64(coldDirect)
	}
	return []gate{
		check("clean run", direct.failed() == 0 && batched.failed() == 0,
			"unbatched %s, batched %s", direct.failures(), batched.failures()),
		check("hit parity", drift <= hotParity && coldBatched > 0,
			"%d batched vs %d unbatched duplicate hits in the cold pass (gate ≤ %.0f%% drift)", coldBatched, coldDirect, 100*hotParity),
		check("hit-path p99", direct99[1] > 0 && x(1) <= hotLatencyX && x(2) <= hotBurstX,
			"median of %d steady slices' p99s: %v batched vs %v unbatched = %.2f× (gate ≤ %.2f×); their p90: %.2f× (gate ≤ %.2f×)",
			sliceP99[0].Count(), batched99[1], direct99[1], x(1), hotLatencyX, x(2), hotBurstX),
	}, nil
}
