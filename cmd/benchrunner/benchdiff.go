package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// The -bench-diff mode is the performance-regression gate: it re-runs a
// pinned subset of the serving hot-path benchmarks and compares them
// against the committed BENCH_serving.json. A run fails when ns/op
// regresses by more than maxNsRegression on any pinned row, or when
// allocs/op regresses at all — allocation counts are deterministic after
// warmup, so any increase is a real lifecycle regression, not noise.

// maxNsRegression is the tolerated ns/op ratio (current / committed).
const maxNsRegression = 1.25

// diffSubset pins the hot-path rows the gate watches. Deliberately a
// subset of servingBenches: rows dominated by wall-clock-noisy work
// (HTTP round trips at microsecond scale, background-trained fixtures)
// would flake at a 25% bar; these are stable to a few percent on an
// idle machine and cover the serving pipeline end to end — encode,
// user-size search, large-tenant pruned scan, the full HTTP hit path's
// allocation budget, and the fully-traced direct hit path (so
// instrumentation overhead is gated like any other regression).
var diffSubset = []string{
	"EncodeMPNetSim",
	"CacheFindSimilar768x1000",
	"IndexScan64x20k",
	"ServerQueryHit",
	"ServerQueryHitBatched",
	"ServerQueryHitTraced",
}

func runBenchDiff(baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var baseline benchReport
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("parsing baseline: %w", err)
	}
	// The calibration row is what makes cross-machine comparison sound;
	// without it every ratio below would silently gate on hardware
	// instead of code. Hard-fail up front rather than degrade: every
	// division by CalibrationNs downstream is then safe by construction.
	if baseline.CalibrationNs <= 0 {
		return fmt.Errorf("benchdiff: baseline %s has no calibration_ns row — regenerate it with `make bench-json` and commit the result", baselinePath)
	}
	// The rows run at the parallelism the baseline was captured at:
	// allocs/op is gated at zero tolerance, and the parallel scan row
	// allocates per worker (IndexScan64x20k: 4 at one CPU, 11 at two).
	// vecmath sizes its worker pool from GOMAXPROCS once, at package
	// init, so runtime.GOMAXPROCS here would come too late: a process
	// started at another setting runs the gate in a child that has the
	// baseline's in its environment (and a child never spawns another).
	if baseline.NumCPU < 1 {
		return fmt.Errorf("benchdiff: baseline %s has no num_cpu row — regenerate it with `make bench-json` and commit the result", baselinePath)
	}
	procs := strconv.Itoa(baseline.NumCPU)
	if runtime.GOMAXPROCS(0) != baseline.NumCPU && os.Getenv("GOMAXPROCS") != procs {
		self, err := os.Executable()
		if err != nil {
			return fmt.Errorf("benchdiff: %w", err)
		}
		fmt.Fprintf(os.Stderr, "[benchdiff] re-running at GOMAXPROCS=%s, the baseline's num_cpu (this process started at %d)\n",
			procs, runtime.GOMAXPROCS(0))
		child := exec.Command(self, os.Args[1:]...)
		child.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		child.Stdout, child.Stderr = os.Stdout, os.Stderr
		return child.Run()
	}
	committed := make(map[string]benchResult, len(baseline.Results))
	for _, r := range baseline.Results {
		committed[r.Name] = r
	}

	// Normalise for machine speed: the committed numbers came from some
	// other (or differently loaded) machine, so raw ns comparisons would
	// gate on hardware, not code. The calibration workload is private to
	// this tool and identical across versions; its ratio rescales the
	// committed expectations to the current machine. speedFactor is
	// re-measured per attempt because shared runners throttle over time.
	speedFactor := func() float64 {
		cur := calibrate()
		speed := cur / baseline.CalibrationNs
		fmt.Fprintf(os.Stderr, "[benchdiff] calibration: %.0f ns now vs %.0f committed — machine speed factor %.2f\n",
			cur, baseline.CalibrationNs, speed)
		return speed
	}

	byName := make(map[string]servingBench, len(servingBenches()))
	for _, sb := range servingBenches() {
		byName[sb.name] = sb
	}

	failures := 0
	for _, name := range diffSubset {
		base, ok := committed[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "[benchdiff] %s: no committed baseline row — run `make bench-json` and commit it\n", name)
			failures++
			continue
		}
		sb, ok := byName[name]
		if !ok {
			return fmt.Errorf("benchdiff: pinned row %q is not a known benchmark", name)
		}
		// Up to three attempts, each with a fresh calibration: shared or
		// virtualised runners swing well past the regression bar between
		// throttling windows, and a transient window must not fail the
		// gate. A real regression fails every attempt.
		const attempts = 3
		var ns, ratio float64
		var allocs int64
		for attempt := 0; attempt < attempts; attempt++ {
			fmt.Fprintf(os.Stderr, "[benchdiff] %s (attempt %d)...\n", name, attempt+1)
			speed := speedFactor()
			r := testing.Benchmark(sb.fn)
			ns = float64(r.T.Nanoseconds()) / float64(r.N)
			a := ns / (base.NsPerOp * speed)
			if attempt == 0 || a < ratio {
				ratio = a
			}
			// Keep the best allocation reading too: a GC draining the
			// sync.Pools mid-run inflates one attempt's count, and that
			// noise deserves the same retry the timing gets.
			if attempt == 0 || r.AllocsPerOp() < allocs {
				allocs = r.AllocsPerOp()
			}
			if ratio <= maxNsRegression && allocs <= base.AllocsPerOp {
				break
			}
		}
		var problems []string
		if ratio > maxNsRegression {
			problems = append(problems, fmt.Sprintf("ns/op regressed %.0f%% (limit %.0f%%)", 100*(ratio-1), 100*(maxNsRegression-1)))
		}
		if allocs > base.AllocsPerOp {
			problems = append(problems, fmt.Sprintf("allocs/op %d > committed %d", allocs, base.AllocsPerOp))
		}
		verdict := "ok"
		if len(problems) > 0 {
			verdict = "FAIL " + strings.Join(problems, "; ")
			failures++
		}
		fmt.Fprintf(os.Stderr, "[benchdiff] %s: %.0f ns/op vs %.0f committed (best %.2fx calibrated), %d vs %d allocs/op — %s\n",
			name, ns, base.NsPerOp, ratio, allocs, base.AllocsPerOp, verdict)
	}
	if failures > 0 {
		return fmt.Errorf("benchdiff: %d regression(s) against %s", failures, baselinePath)
	}
	fmt.Fprintf(os.Stderr, "[benchdiff] all %d pinned rows within budget\n", len(diffSubset))
	return nil
}
