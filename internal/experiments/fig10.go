package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/gptcache"
	"repro/internal/llmsim"
)

// Fig10Cell is one (system, cache size) measurement of Figure 10.
type Fig10Cell struct {
	System     string
	Cached     int
	StorageKB  float64
	SearchTime time.Duration
	// FloatsPerSearch is the mean count of floats a search scored (0 for
	// GPTCache): stored rows × embedding width on the exact scan.
	FloatsPerSearch float64
	FScore          float64 // F0.5, consistent with Table I
}

// Fig10Result is the full compression study grid.
type Fig10Result struct {
	Cells []Fig10Cell
	// SavingsPct is the embedding-storage saving of compression at the
	// largest cache size (paper: ≈83%).
	SavingsPct float64
	// ScanRatio is the floats a compressed MPNet search scores over the
	// floats a raw 768-d one scores, at the largest size: a count, so it
	// is the same on every machine.
	ScanRatio float64
	// SpeedupPct is the search-time reduction at the largest size, one
	// minus a ratio of two wall-clock means taken one after the other: it
	// is reported, not relied on.
	SpeedupPct float64
}

// Fig10 measures storage, mean semantic-search time, and F-score for cache
// sizes {1×, 2×, 3×}·NCached across five systems: GPTCache, MeanCache with
// raw 768-d embeddings (MPNet and Albert), and MeanCache with PCA-
// compressed 64-d embeddings (MPNet and Albert).
func Fig10(lab *Lab) *Fig10Result {
	sizes := []int{lab.Cfg.NCached, 2 * lab.Cfg.NCached, 3 * lab.Cfg.NCached}
	type sysSpec struct {
		name string
		mk   func() System
	}
	mpnet := lab.Trained(embed.MPNetSim)
	albert := lab.Trained(embed.AlbertSim)
	specs := []sysSpec{
		{"GPTCache", func() System {
			return NewGPTCacheSystem("GPTCache", lab.UntrainedModel(embed.AlbertSim), gptcache.DefaultTau, 0)
		}},
		{"MeanCache (MPNet)", func() System {
			return NewMeanCacheSystem("MeanCache (MPNet)", mpnet.Model, mpnet.Tau)
		}},
		{"MeanCache (Albert)", func() System {
			return NewMeanCacheSystem("MeanCache (Albert)", albert.Model, albert.Tau)
		}},
		{"MeanCache-Compressed (MPNet)", func() System {
			return NewMeanCacheSystem("MeanCache-Compressed (MPNet)",
				lab.CompressedEncoder(embed.MPNetSim), lab.CompressedTau(embed.MPNetSim))
		}},
		{"MeanCache-Compressed (Albert)", func() System {
			return NewMeanCacheSystem("MeanCache-Compressed (Albert)",
				lab.CompressedEncoder(embed.AlbertSim), lab.CompressedTau(embed.AlbertSim))
		}},
	}

	res := &Fig10Result{}
	for _, size := range sizes {
		w := dataset.GenerateCacheWorkload(lab.Cfg.Corpus, size, lab.Cfg.NProbes, lab.Cfg.DupFraction)
		cached := make([]dataset.CtxQuery, len(w.Cached))
		for i, q := range w.Cached {
			cached[i] = dataset.CtxQuery{Text: q, DupOf: -1}
		}
		for _, spec := range specs {
			sys := spec.mk()
			llm := llmsim.New(llmsim.DefaultConfig())
			sys.Populate(cached, llm)
			var outcomes []ProbeOutcome
			for _, p := range w.Probes {
				hit, lat := sys.Probe(p.Text, nil, llm, false)
				outcomes = append(outcomes, ProbeOutcome{Dup: p.DupOf >= 0, Hit: hit, Latency: lat})
			}
			m := Confusion(outcomes)
			cell := Fig10Cell{
				System:     spec.name,
				Cached:     size,
				StorageKB:  float64(sys.StorageBytes()) / 1024,
				SearchTime: sys.SearchStats(),
				FScore:     m.FBeta(0.5),
			}
			if mc, ok := sys.(*meanCacheSystem); ok {
				cell.FloatsPerSearch = mc.floatsPerSearch()
			}
			res.Cells = append(res.Cells, cell)
		}
	}

	// Headline numbers at the largest size: raw MPNet vs compressed MPNet.
	var raw, comp *Fig10Cell
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Cached != sizes[len(sizes)-1] {
			continue
		}
		switch c.System {
		case "MeanCache (MPNet)":
			raw = c
		case "MeanCache-Compressed (MPNet)":
			comp = c
		}
	}
	if raw != nil && comp != nil {
		res.SavingsPct = 100 * (1 - comp.StorageKB/raw.StorageKB)
		if raw.FloatsPerSearch > 0 {
			res.ScanRatio = comp.FloatsPerSearch / raw.FloatsPerSearch
		}
		if raw.SearchTime > 0 {
			res.SpeedupPct = 100 * (1 - float64(comp.SearchTime)/float64(raw.SearchTime))
		}
	}
	return res
}

// String renders the three panels of Figure 10.
func (r *Fig10Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 10: embedding compression study\n\n")
	fmt.Fprintf(&b, "  %-30s %8s %12s %12s %8s\n", "System", "Cached", "Storage(KB)", "Search", "F-score")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-30s %8d %12.0f %12v %8.2f\n",
			c.System, c.Cached, c.StorageKB, c.SearchTime.Round(time.Microsecond), c.FScore)
	}
	fmt.Fprintf(&b, "\n  compression: %.0f%% storage saving, %.3f× the floats scored per search; wall clock %.0f%% faster search (paper: 83%%, 11%%)\n",
		r.SavingsPct, r.ScanRatio, r.SpeedupPct)
	return b.String()
}
