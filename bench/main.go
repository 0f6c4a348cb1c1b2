// Command bench is the repository's end-to-end benchmark: four traffic
// mixes driven against the shipped cmd/cacheserve over loopback, plus a
// traced in-process replay that splits the same requests layer by layer.
// README.md in this directory defines every metric; BENCHMARK.json at the
// repository root is the contract the driver runs it under.
//
//	go run ./bench -seed 7                 # all four workloads, both views
//	go run ./bench -workload big_tenant -seed 7 -seconds 10 -trace 0
//	go run ./bench -selfcheck
//
// Run it from the repository root: it builds ./cmd/cacheserve.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"

	"repro/internal/embed"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run: small_tenants, big_tenant, evict_churn, contextual or all")
		seed         = flag.Int64("seed", 1, "workload seed (the encoder's seed is a constant of the benchmark)")
		seconds      = flag.Int("seconds", baseSeconds, "nominal length of the measured phase; request counts scale with it")
		trace        = flag.Int("trace", 1, "0 = end-to-end metrics only; 1 = also the traced replay and the per-layer metrics")
		outPath      = flag.String("out", "", "write the full result as JSON to this file")
		traceOut     = flag.String("trace-out", "", "write the traced replay's spans as JSONL to this file (one workload only)")
		selfcheck    = flag.Bool("selfcheck", false, "run every workload twice and print each end-to-end metric's relative difference beside its bound")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be ≥ 1, -trace 0 or 1, and there are no positional arguments")
		return 2
	}
	names := workloadNames
	if *workloadName != "all" {
		names = []string{*workloadName}
	}
	if *traceOut != "" && len(names) != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace-out needs a single -workload")
		return 2
	}

	// Every exit path stops and reaps cacheserve and removes the temp
	// dirs: the deferred call on return, the handler on SIGINT/SIGTERM.
	var once sync.Once
	cleanup := func() { once.Do(func() { stopAllServers(); removeRunDir() }) }
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	env, err := prepare()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *selfcheck {
		return runSelfcheck(env, *seed, *seconds)
	}

	rep := report{Seed: *seed, Seconds: *seconds, Env: env.Info}
	failed := 0
	for _, name := range names {
		w, err := buildWorkload(name, *seed, *seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		res, err := runWorkload(env, w, *trace == 1, *traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		res.print(os.Stdout)
		failed += res.Failed
		rep.Workloads = append(rep.Workloads, res)
	}
	if *outPath != "" {
		if err := rep.write(*outPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing -out:", err)
			return 1
		}
	}
	if len(names) == 1 {
		// The driver's contract: the last line of stdout is one JSON
		// object, with the end-to-end metrics untraced and the per-layer
		// metrics traced.
		fmt.Println(rep.Workloads[0].driverLine(*trace == 1))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d requests failed the output check\n", failed)
		return 1
	}
	return 0
}

// buildEnv is what every run of this invocation shares.
type buildEnv struct {
	ServerBin string
	ModelPath string
	Model     modelMeta
	Encoder   *embed.Model // loaded on first traced run
	Info      envInfo
}

// prepare builds the server, trains or finds the encoder, and records
// the machine.
func prepare() (*buildEnv, error) {
	bin, err := buildServer()
	if err != nil {
		return nil, err
	}
	path, meta, err := ensureModel()
	if err != nil {
		return nil, err
	}
	if err := makeRunDir(); err != nil {
		return nil, err
	}
	env := &buildEnv{ServerBin: bin, ModelPath: path, Model: meta, Info: machineInfo()}
	if !env.Info.Comparable {
		fmt.Fprintf(os.Stderr, "bench: %d CPU(s): the two closed-loop clients and the server need two; this result is not comparable\n", runtime.NumCPU())
	}
	return env, nil
}

// runWorkload runs the untraced rounds and, when asked, the traced
// replay and the direct probes.
func runWorkload(env *buildEnv, w *workload, withTrace bool, traceOut string) (*workloadResult, error) {
	u, err := runUntraced(env, w)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{
		Name:       w.Name,
		Rounds:     w.Rounds,
		Sent:       u.Sent,
		Succeeded:  u.Succeeded,
		Failed:     u.Failed + u.WarmFailed,
		WarmSent:   u.WarmSent,
		WarmFailed: u.WarmFailed,
		EndToEnd:   u.endToEnd(),
	}
	if !withTrace {
		return res, nil
	}
	if env.Encoder == nil {
		if env.Encoder, err = loadModel(env.ModelPath); err != nil {
			return nil, err
		}
	}
	t, err := runTraced(env, w)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", w.Name, err)
	}
	probes, err := directProbes(w, env.Encoder, env.Model.Tau)
	if err != nil {
		return nil, fmt.Errorf("%s probes: %w", w.Name, err)
	}
	untracedP50 := percentile(u.RTTus, 0.5) // pooled, like the traced figure
	res.TracedSent, res.TracedFailed = t.Sent+t.WarmSent, t.Failed+t.WarmFailed
	res.Failed += res.TracedFailed
	res.PerLayer = append(res.PerLayer, t.Layer...)
	res.PerLayer = append(res.PerLayer, probes...)
	res.PerLayer = append(res.PerLayer, u.clientLayer(env)...)
	res.PerLayer = append(res.PerLayer,
		// Also absorbs whatever differs between the subprocess and the
		// in-process wiring of the same stack.
		metric{"trace.overhead_frac", (t.RTTP50us - untracedP50) / untracedP50, "ratio", t.Sent})
	if traceOut != "" {
		if err := t.Tracer.writeJSONL(traceOut); err != nil {
			return nil, fmt.Errorf("writing -trace-out: %w", err)
		}
	}
	return res, nil
}
