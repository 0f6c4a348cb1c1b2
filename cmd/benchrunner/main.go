// Command benchrunner regenerates the paper's evaluation: every table and
// figure of §IV, printed in the layout the paper reports.
//
// Usage:
//
//	benchrunner                     # run everything at paper scale
//	benchrunner -exp table1,fig10   # selected experiments
//	benchrunner -quick              # scaled-down configuration (CI)
//	benchrunner -o results.txt      # also write results to a file
//
// Expensive shared artifacts (the synthetic corpus and the FL-trained
// models) are built once and reused across the selected experiments.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'; known: "+strings.Join(experiments.Names(), ","))
		quick   = flag.Bool("quick", false, "use the scaled-down test configuration")
		seed    = flag.Int64("seed", 1, "master random seed")
		outPath = flag.String("o", "", "also write results to this file")
		quiet   = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Seed = *seed
	cfg.Corpus.Seed = *seed

	var names []string
	if *expFlag == "all" {
		names = experiments.Names()
	} else {
		names = strings.Split(*expFlag, ",")
	}
	runners := make([]experiments.Runner, len(names))
	for i, name := range names {
		r, err := experiments.Lookup(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		runners[i] = r
	}

	lab := experiments.NewLab(cfg)
	if !*quiet {
		lab.SetLogf(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[lab] "+format+"\n", args...)
		})
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatalf("creating %s: %v", *outPath, err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(out, "MeanCache reproduction — experiment results\n")
	fmt.Fprintf(out, "config: quick=%v seed=%d clients=%d rounds=%d cached=%d probes=%d\n",
		*quick, *seed, cfg.FLClients, cfg.FLRounds, cfg.NCached, cfg.NProbes)
	fmt.Fprintf(out, "generated: %s\n", time.Now().Format(time.RFC3339))

	for i, name := range names {
		start := time.Now()
		result := runners[i](lab)
		fmt.Fprintf(out, "\n%s\n", strings.Repeat("=", 72))
		fmt.Fprintf(out, "[%s] (%.1fs)\n\n", strings.TrimSpace(name), time.Since(start).Seconds())
		fmt.Fprintln(out, result.String())
	}
}
