package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// contract is the part of BENCHMARK.json -selfcheck needs: each
// end-to-end metric's direction and bound.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck runs every workload twice on the same build and prints,
// per end-to-end metric, how much worse the second run read than the
// first, as a share of the first, beside the metric's bound. It returns
// non-zero if any metric moved past its bound: on one build, that much
// movement is noise the bound does not cover.
func runSelfcheck(env *buildEnv, seed int64, seconds int) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	var c contract
	if err == nil {
		err = json.Unmarshal(raw, &c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: reading BENCHMARK.json (run from the repository root):", err)
		return 1
	}
	status := 0
	for _, name := range workloadNames {
		var runs [2]map[string]jsonMetric
		for i := range runs {
			w, err := buildWorkload(name, seed, seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			res, err := runWorkload(env, w, false, "")
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if res.Failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: %s: %d requests failed the output check\n", name, res.Failed)
				status = 1
			}
			runs[i] = metricMap(res.EndToEnd, false)
		}
		fmt.Printf("== %s (seed %d)\n  %-24s %14s %14s %10s %8s\n", name, seed, "metric", "run 1", "run 2", "worse by", "bound")
		for _, m := range c.EndToEnd {
			a, b := runs[0][m.Name].Value, runs[1][m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			mark := ""
			if worse > m.Bound {
				mark = "  EXCEEDS"
				status = 1
			}
			fmt.Printf("  %-24s %14.4f %14.4f %+9.2f%% %7.1f%%%s\n", m.Name, a, b, 100*worse, 100*m.Bound, mark)
		}
	}
	return status
}
