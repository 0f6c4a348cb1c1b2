// Command loadgen is the acceptance-gate harness of the serving stack:
// one closed-loop load driver and five scenarios that each put a gate on
// one claim. (Performance measurement lives in bench/; loadgen only
// answers pass or fail.)
//
// Every scenario builds a seeded workload of simulated users
// (internal/dataset, with ground-truth duplicate labels), drives it
// through one shared worker pool in which every request waits for its
// reply before the worker takes the next job (driver.go), classifies
// each reply into one phase record, and returns a list of named gates.
// The gates are printed PASS/FAIL in one format; with -accept a failed
// gate makes the exit status non-zero.
//
//	serve     drive a running cacheserve (-addr): warm every user's
//	          cache, then measure probes; reports throughput, hit ratio,
//	          cache-decision precision/recall/F1, latency percentiles,
//	          the server's /v1/stats and a per-stage latency breakdown
//	          from its /metrics. Gate: zero request errors.
//	          With -fl N (against cacheserve -fl) it drives the online
//	          federated-learning loop instead: users share one lexicon
//	          but hold private intents, each probe phase files the
//	          feedback the FL collector learns from, then triggers a
//	          round; the report is the hit-ratio/F1/τ trajectory against
//	          the frozen-model baseline.
//	ann       in process, no server: a clustered 200k × 64-d corpus
//	          indexed under Flat and the Adaptive index every tenant
//	          gets. Gate: Adaptive ≥5× Flat at recall@10 ≥ 0.95.
//	cluster   in process: a 3-node cluster over shared storage takes an
//	          abrupt node kill mid-run. Gates: zero errors, zero lost
//	          tenants, ≥90% duplicate-hit-rate retention.
//	overload  in process: a governed stack with a sleeping upstream goes
//	          through a brown-out and a full outage at ≥10× offered load.
//	          Gates: the limiter sheds, the breaker trips to cache-only
//	          serving and re-closes, served throughput ≥90% of capacity,
//	          hit p99 <5× unloaded, nothing unexpected.
//	crash     a real cacheserve (-crash-bin) over one persist dir
//	          (-crash-dir) is SIGKILLed mid-traffic 21 times with one
//	          corrupt snapshot injected. Gates: every restart healthy,
//	          zero lost synced tenants, exactly one quarantine, zero
//	          errors outside kill windows.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:8090 -users 100 -probes 12 -concurrency 32 -accept
//	loadgen -addr 127.0.0.1:8090 -users 50 -fl 3 -accept
//	loadgen -scenario ann -accept
//	loadgen -scenario cluster -users 80 -accept
//	loadgen -scenario overload -users 60 -accept
//	loadgen -scenario crash -crash-bin ./bin/cacheserve -accept
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// env carries the flags to the scenarios.
type env struct {
	addr        string
	users       int
	cached      int
	probes      int
	dup         float64
	concurrency int
	seed        int64
	timeout     time.Duration
	flRounds    int

	annQueries         int
	crashBin, crashDir string
}

// scenario is one acceptance run. It owns its workload, the stack it
// runs against, and its gate predicates; the driver, the reply
// classification, the phase record and the verdict are shared. A
// returned error means the run could not be carried out at all.
type scenario struct {
	name string
	run  func(env) ([]gate, error)
}

var scenarios = []scenario{
	{"serve", runServe},
	{"ann", runANN},
	{"cluster", runCluster},
	{"overload", runOverload},
	{"crash", runCrash},
}

func scenarioNames() string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.name
	}
	return strings.Join(names, ", ")
}

func lookupScenario(name string) (scenario, error) {
	for _, sc := range scenarios {
		if sc.name == name {
			return sc, nil
		}
	}
	return scenario{}, fmt.Errorf("unknown -scenario %q (want one of: %s)", name, scenarioNames())
}

// gate is one named acceptance predicate and the numbers it judged.
type gate struct {
	name   string
	ok     bool
	detail string
}

func check(name string, ok bool, format string, args ...any) gate {
	return gate{name: name, ok: ok, detail: fmt.Sprintf(format, args...)}
}

// verdict prints one PASS/FAIL line per gate and returns the process
// exit status: non-zero only when a gate failed and accept is set.
func verdict(w io.Writer, gates []gate, accept bool) int {
	failed := 0
	for _, g := range gates {
		word := "PASS"
		if !g.ok {
			word = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s %-18s %s\n", word, g.name, g.detail)
	}
	switch {
	case failed == 0:
		fmt.Fprintf(w, "ACCEPT PASS: %d of %d gates held\n", len(gates), len(gates))
		return 0
	case accept:
		fmt.Fprintf(w, "ACCEPT FAIL: %d of %d gates did not hold\n", failed, len(gates))
		return 1
	default:
		fmt.Fprintf(w, "%d of %d gates did not hold (not enforced without -accept)\n", failed, len(gates))
		return 0
	}
}

// realMain is main without the process exit, so tests can call it.
func realMain(args []string, stdout, stderr io.Writer) int {
	var e env
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("scenario", "serve", "acceptance run: "+scenarioNames()+" (see the package comment)")
	accept := fs.Bool("accept", false, "exit non-zero if any gate of the scenario fails")
	fs.StringVar(&e.addr, "addr", "127.0.0.1:8090", "serve: cacheserve address (host:port)")
	fs.IntVar(&e.users, "users", 100, "number of simulated users")
	fs.IntVar(&e.cached, "cached", 8, "warmup queries per user (populate the tenant cache)")
	fs.IntVar(&e.probes, "probes", 12, "measured probes per user (per phase)")
	fs.Float64Var(&e.dup, "dup", 0.3, "serve, cluster: fraction of probes that duplicate a cached query")
	fs.IntVar(&e.concurrency, "concurrency", 32, "concurrent in-flight requests")
	fs.Int64Var(&e.seed, "seed", 42, "workload generation seed")
	fs.DurationVar(&e.timeout, "timeout", 30*time.Second, "per-request timeout")
	fs.IntVar(&e.flRounds, "fl", 0, "serve: online FL rounds to drive (0 = plain load test)")
	fs.IntVar(&e.annQueries, "ann-queries", 500, "ann: measured queries")
	fs.StringVar(&e.crashBin, "crash-bin", "./bin/cacheserve", "crash: cacheserve binary to run and kill")
	fs.StringVar(&e.crashDir, "crash-dir", "bin/crashtenants", "crash: persist dir shared across incarnations")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, err := lookupScenario(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	gates, err := sc.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", sc.name, err)
		return 1
	}
	return verdict(stdout, gates, *accept)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}
