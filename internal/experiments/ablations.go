package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/fl"
	"repro/internal/llmsim"
	"repro/internal/metrics"
	"repro/internal/pca"
	"repro/internal/train"
)

// The ablations quantify the design decisions DESIGN.md calls out. They go
// beyond the paper's figures: each isolates one mechanism of MeanCache and
// measures the deployment-level effect of removing or varying it.

// AblationRow is one configuration's deployment scores.
type AblationRow struct {
	Config string
	Scores metrics.Scores
	Note   string
}

// AblationResult is a titled list of configuration rows.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// String renders the ablation table.
func (r *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n\n", r.Title)
	fmt.Fprintf(&b, "  %-36s %7s %10s %7s %s\n", "Configuration", "F0.5", "Precision", "Recall", "Note")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-36s %7.2f %10.2f %7.2f %s\n",
			row.Config, row.Scores.FScore, row.Scores.Precision, row.Scores.Recall, row.Note)
	}
	return b.String()
}

// AblationContext isolates the context-chain mechanism: the same trained
// encoder and threshold on the contextual workload, with and without
// context verification. Without it MeanCache degrades to GPTCache-style
// behaviour on follow-ups.
func AblationContext(lab *Lab) *AblationResult {
	tm := lab.Trained(embed.MPNetSim)
	w := lab.CtxWorkload()
	res := &AblationResult{Title: "context-chain verification (contextual workload)"}

	run := func(name string, sys System, note string) {
		llm := llmsim.New(llmsim.DefaultConfig())
		outcomes := RunContextual(sys, w, llm)
		res.Rows = append(res.Rows, AblationRow{
			Config: name,
			Scores: metrics.ScoresFrom(Confusion(outcomes), 0.5),
			Note:   note,
		})
	}
	run("with context chains", NewMeanCacheSystem("mc", tm.Model, tm.Tau), "Algorithm 1")
	run("without context chains",
		NewGPTCacheSystem("mc-noctx", tm.Model, tm.Tau, 0),
		"same encoder+tau, context ignored")
	return res
}

// AblationThresholdCalibration compares the two threshold-search
// objectives on the standalone deployment: the pairwise sweep (what a
// naive implementation would use) versus the cache-aware sweep of
// §III-A.2 ("optimises the F-score of the cache").
func AblationThresholdCalibration(lab *Lab) *AblationResult {
	tm := lab.Trained(embed.MPNetSim)
	corpus := lab.Corpus()
	w := lab.Workload()
	res := &AblationResult{Title: "threshold calibration objective (standalone workload)"}

	pairTau := train.Sweep(tm.Model, corpus.Val, 0.01, 0.5).Optimal.Tau
	cacheTau := train.CacheSweep(tm.Model, corpus.Val, 0.01, 0.5).Optimal.Tau
	for _, cfg := range []struct {
		name string
		tau  float64
	}{
		{"pairwise-optimal tau", pairTau},
		{"cache-aware tau", cacheTau},
		{"aggregated tau_global (deployed)", tm.Tau},
	} {
		llm := llmsim.New(llmsim.DefaultConfig())
		sys := NewMeanCacheSystem("mc", tm.Model, cfg.tau)
		outcomes := RunStandalone(sys, w, llm)
		res.Rows = append(res.Rows, AblationRow{
			Config: cfg.name,
			Scores: metrics.ScoresFrom(Confusion(outcomes), 0.5),
			Note:   fmt.Sprintf("tau=%.2f", cfg.tau),
		})
	}
	return res
}

// AblationAggregator compares FedAvg with unweighted averaging under
// unbalanced client data: one client holds half the corpus, the rest split
// the remainder. Sample-weighted aggregation should track the data-rich
// client's quality.
func AblationAggregator(lab *Lab) *AblationResult {
	corpus := lab.Corpus()
	res := &AblationResult{Title: "FL aggregation strategy (unbalanced clients)"}
	nClients := lab.Cfg.FLClients

	// Unbalanced shards: client 0 takes 50%, the rest share the rest.
	rng := rand.New(rand.NewSource(lab.Cfg.Seed + 900))
	shuffled := make([]dataset.Pair, len(corpus.Train))
	copy(shuffled, corpus.Train)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	half := len(shuffled) / 2
	rest := dataset.SplitPairs(shuffled[half:], nClients-1, rng)
	shards := append([][]dataset.Pair{shuffled[:half]}, rest...)

	for _, agg := range []fl.Aggregator{fl.FedAvg{}, fl.SimpleAvg{}} {
		clients := make([]fl.Client, nClients)
		for i := range clients {
			clients[i] = fl.NewLocalClient(i, embed.MPNetSim, lab.Cfg.Seed+100, shards[i], lab.Cfg.Train, 0.5)
		}
		global := embed.NewModel(embed.MPNetSim, lab.Cfg.Seed+100)
		srv := fl.NewServer(global, clients, fl.ServerConfig{
			Rounds:          lab.Cfg.FLRounds,
			ClientsPerRound: lab.Cfg.FLPerRound,
			Seed:            lab.Cfg.Seed + 300,
			InitialTau:      0.7,
			Aggregator:      agg,
		})
		if err := srv.Run(nil); err != nil {
			panic(fmt.Sprintf("experiments: aggregator ablation: %v", err))
		}
		conf := train.EvaluateAt(global, corpus.Val, srv.Tau())
		res.Rows = append(res.Rows, AblationRow{
			Config: agg.Name(),
			Scores: metrics.ScoresFrom(conf, 0.5),
			Note:   fmt.Sprintf("tau_global=%.2f", srv.Tau()),
		})
	}
	return res
}

// AblationPCADims sweeps the compressed dimensionality: quality and
// per-entry storage for k ∈ {16, 32, 64, 128} against the raw encoder.
func AblationPCADims(lab *Lab) *AblationResult {
	tm := lab.Trained(embed.MPNetSim)
	corpus := lab.Corpus()
	res := &AblationResult{Title: "PCA compressed dimensionality"}

	n := min(lab.Cfg.PCASamples, len(corpus.Train))
	texts := make([]string, 0, n)
	for _, p := range corpus.Train[:n] {
		texts = append(texts, p.A)
	}
	samples := tm.Model.EncodeBatch(texts)

	rawOpt := train.Sweep(tm.Model, corpus.Val, 0.01, 1).Optimal
	res.Rows = append(res.Rows, AblationRow{
		Config: fmt.Sprintf("raw %d-d", tm.Model.Dim()),
		Scores: rawOpt.Scores,
		Note:   fmt.Sprintf("%d B/entry", tm.Model.Dim()*4),
	})
	for _, k := range []int{16, 32, 64, 128} {
		if k >= samples.Rows {
			continue
		}
		proj, err := pca.Fit(samples, k, pca.Options{Seed: lab.Cfg.Seed})
		if err != nil {
			panic(fmt.Sprintf("experiments: pca ablation: %v", err))
		}
		enc := embed.WithCenteredProjection(tm.Model, proj.Components, proj.Mean)
		opt := train.Sweep(enc, corpus.Val, 0.01, 1).Optimal
		res.Rows = append(res.Rows, AblationRow{
			Config: fmt.Sprintf("pca %d-d", k),
			Scores: opt.Scores,
			Note:   fmt.Sprintf("%d B/entry, %.0f%% var", k*4, 100*proj.ExplainedRatio()),
		})
	}
	return res
}

// AblationEviction measures cache hit quality under LRU/LFU/FIFO on a
// capacity-constrained cache fed a Zipf-skewed resubmission stream: the
// classic web-caching comparison, here over semantic entries.
func AblationEviction(lab *Lab) *AblationResult {
	tm := lab.Trained(embed.MPNetSim)
	res := &AblationResult{Title: "eviction policy (capacity = 25% of working set, Zipf stream)"}

	cfg := lab.Cfg.Corpus
	rng := rand.New(rand.NewSource(lab.Cfg.Seed + 901))
	gen := dataset.NewGenerator(cfg, rng)
	// Working set: N intents with Zipf-like popularity; stream of
	// resubmissions drawn from it.
	nIntents := lab.Cfg.NCached / 2
	intents := make([]dataset.Intent, nIntents)
	for i := range intents {
		intents[i] = gen.NewIntent(i)
	}
	streamLen := 4 * nIntents
	stream := make([]int, streamLen)
	for i := range stream {
		// Discrete Zipf via inverse-power sampling.
		r := rng.Float64()
		stream[i] = int(float64(nIntents) * r * r * r)
		if stream[i] >= nIntents {
			stream[i] = nIntents - 1
		}
	}

	for _, policy := range []cache.Policy{cache.LRU{}, cache.LFU{}, cache.FIFO{}} {
		client := core.New(core.Options{
			Encoder:      tm.Model,
			LLM:          llmsim.New(llmsim.DefaultConfig()),
			Tau:          float32(tm.Tau),
			Capacity:     nIntents / 4,
			Policy:       policy,
			IndexFactory: exactIndex,
		})
		hits := 0
		seen := make(map[int]bool)
		possible := 0
		for _, idx := range stream {
			q := gen.Realize(intents[idx])
			r, err := client.Query(q)
			if err != nil {
				panic(fmt.Sprintf("experiments: eviction ablation: %v", err))
			}
			if r.Hit {
				hits++
			}
			if seen[idx] {
				possible++
			}
			seen[idx] = true
		}
		hitRate := float64(hits) / float64(possible)
		res.Rows = append(res.Rows, AblationRow{
			Config: policy.Name(),
			Scores: metrics.Scores{Recall: hitRate},
			Note:   fmt.Sprintf("%d hits / %d resubmissions", hits, possible),
		})
	}
	res.Title += " — Recall column is resubmission hit rate"
	return res
}
