// Package repro_test hosts the top-level benchmark harness: one testing.B
// benchmark per table/figure of the paper's evaluation (§IV), so
//
//	go test -bench=. -benchmem
//
// regenerates every result at the quick scale, and
//
//	go run ./cmd/benchrunner
//
// regenerates them at the paper scale. Benchmarks report domain metrics
// (F-scores, false hits, storage, search latency) via b.ReportMetric, so a
// single bench run doubles as a results table.
package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/llmsim"
	"repro/internal/server"
	"repro/internal/stack"
)

// lab is shared across benchmarks; building it (FL-training two encoders)
// is itself part of the first benchmark that needs it.
var (
	labOnce sync.Once
	lab     *experiments.Lab
)

func sharedLab() *experiments.Lab {
	labOnce.Do(func() {
		lab = experiments.NewLab(experiments.QuickConfig())
	})
	return lab
}

// BenchmarkTable1Standalone regenerates Table I's standalone block: the
// 1000-cached/1000-probe protocol for GPTCache and MeanCache variants.
func BenchmarkTable1Standalone(b *testing.B) {
	l := sharedLab()
	var res *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table1(l)
	}
	gpt, mpnet := res.Standalone[0], res.Standalone[1]
	b.ReportMetric(gpt.Scores.FScore, "gptcache-F0.5")
	b.ReportMetric(mpnet.Scores.FScore, "meancache-F0.5")
	b.ReportMetric(mpnet.Scores.Precision, "meancache-precision")
}

// BenchmarkTable1Contextual regenerates Table I's contextual block
// (the §IV-C 450-query protocol).
func BenchmarkTable1Contextual(b *testing.B) {
	l := sharedLab()
	var res *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table1(l)
	}
	gpt, mean := res.Contextual[0], res.Contextual[1]
	b.ReportMetric(gpt.Scores.FScore, "gptcache-F0.5")
	b.ReportMetric(mean.Scores.FScore, "meancache-F0.5")
}

// BenchmarkFig4UserStudy regenerates the 20-participant study streams and
// their analysis.
func BenchmarkFig4UserStudy(b *testing.B) {
	l := sharedLab()
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = experiments.Fig4(l).MeanRatio
	}
	b.ReportMetric(100*ratio, "dup-ratio-%")
}

// BenchmarkFig5ResponseTimes regenerates the three response-time series.
func BenchmarkFig5ResponseTimes(b *testing.B) {
	l := sharedLab()
	var res *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig5(l)
	}
	mean := func(lat []time.Duration) float64 {
		var sum float64
		for _, d := range lat {
			sum += d.Seconds()
		}
		return sum / float64(len(lat)) * 1000
	}
	mc := res.Series[2].Latencies
	b.ReportMetric(mean(mc[res.DupStart:]), "meancache-dup-ms")
	b.ReportMetric(mean(res.Series[0].Latencies[res.DupStart:]), "nocache-dup-ms")
}

// BenchmarkFig6Labels regenerates the per-query hit/miss strips.
func BenchmarkFig6Labels(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig6(l)
	}
}

// BenchmarkFig7Confusion regenerates the standalone confusion matrices.
func BenchmarkFig7Confusion(b *testing.B) {
	l := sharedLab()
	var res *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig7(l)
	}
	b.ReportMetric(float64(res.MeanCache.FP), "meancache-false-hits")
	b.ReportMetric(float64(res.GPTCache.FP), "gptcache-false-hits")
}

// BenchmarkFig8Contextual regenerates the contextual label strips and
// confusion matrices (Figures 8–9).
func BenchmarkFig8Contextual(b *testing.B) {
	l := sharedLab()
	var res *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig8(l)
	}
	count := func(v []bool) float64 {
		n := 0.0
		for _, x := range v {
			if x {
				n++
			}
		}
		return n
	}
	b.ReportMetric(count(res.NonDupMean), "meancache-false-hits")
	b.ReportMetric(count(res.NonDupGPT), "gptcache-false-hits")
}

// BenchmarkFig10Compression regenerates the storage/search/F-score grid.
func BenchmarkFig10Compression(b *testing.B) {
	l := sharedLab()
	var res *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig10(l)
	}
	b.ReportMetric(res.SavingsPct, "storage-saving-%")
	b.ReportMetric(res.SpeedupPct, "search-speedup-%")
}

// BenchmarkFig11FLMPNet regenerates the MPNet FL curve (training happens
// once in the shared lab; the benchmark measures curve extraction plus the
// amortised training cost on first run).
func BenchmarkFig11FLMPNet(b *testing.B) {
	l := sharedLab()
	var res *experiments.FLCurveResult
	for i := 0; i < b.N; i++ {
		res = experiments.Fig11(l)
	}
	last := res.Curve[len(res.Curve)-1].Scores
	b.ReportMetric(last.FScore, "final-F1")
	b.ReportMetric(last.Precision, "final-precision")
}

// BenchmarkFig12FLAlbert regenerates the Albert FL curve.
func BenchmarkFig12FLAlbert(b *testing.B) {
	l := sharedLab()
	var res *experiments.FLCurveResult
	for i := 0; i < b.N; i++ {
		res = experiments.Fig12(l)
	}
	b.ReportMetric(res.Curve[len(res.Curve)-1].Scores.FScore, "final-F1")
}

// BenchmarkFig13SweepMPNet regenerates the MPNet threshold sweep.
func BenchmarkFig13SweepMPNet(b *testing.B) {
	l := sharedLab()
	var res *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		res = experiments.Fig13(l)
	}
	b.ReportMetric(res.Sweep.Optimal.Tau, "optimal-tau")
	b.ReportMetric(res.Sweep.Optimal.Scores.FScore, "optimal-F1")
}

// BenchmarkFig14SweepAlbert regenerates the Albert threshold sweep.
func BenchmarkFig14SweepAlbert(b *testing.B) {
	l := sharedLab()
	var res *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		res = experiments.Fig14(l)
	}
	b.ReportMetric(res.Sweep.Optimal.Tau, "optimal-tau")
}

// BenchmarkFig15EmbedCost regenerates the embedding cost comparison.
func BenchmarkFig15EmbedCost(b *testing.B) {
	l := sharedLab()
	var res *experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig15(l)
	}
	b.ReportMetric(res.Rows[0].EncodeTime.Seconds()*1e6, "llama-encode-us")
	b.ReportMetric(res.Rows[1].EncodeTime.Seconds()*1e6, "mpnet-encode-us")
}

// BenchmarkFig16SweepLlama regenerates the frozen-Llama threshold sweep.
func BenchmarkFig16SweepLlama(b *testing.B) {
	l := sharedLab()
	var res *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		res = experiments.Fig16(l)
	}
	b.ReportMetric(res.Sweep.Optimal.Scores.FScore, "llama-optimal-F1")
}

// BenchmarkEndToEndQuery measures the deployed per-query path: encode,
// search a 1000-entry cache, and decide — the overhead MeanCache adds to
// every LLM query (Figure 5's unique region).
func BenchmarkEndToEndQuery(b *testing.B) {
	l := sharedLab()
	tm := l.Trained(embed.MPNetSim)
	w := dataset.GenerateCacheWorkload(l.Cfg.Corpus, 1000, 64, 0.3)
	sys := experiments.NewMeanCacheSystem("bench", tm.Model, tm.Tau)
	llm := llmsim.New(llmsim.DefaultConfig())
	cached := make([]dataset.CtxQuery, len(w.Cached))
	for i, q := range w.Cached {
		cached[i] = dataset.CtxQuery{Text: q}
	}
	sys.Populate(cached, llm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := w.Probes[i%len(w.Probes)]
		sys.Probe(p.Text, nil, llm, false)
	}
}

// newBenchServer serves the shipped stack (stack.Default(): untrained
// MPNet-sim encoder, virtual-time llmsim upstream) over HTTP.
func newBenchServer(b *testing.B) *httptest.Server {
	b.Helper()
	st, err := stack.Build(stack.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(st.Handler())
	b.Cleanup(ts.Close)
	return ts
}

func benchQuery(b *testing.B, client *http.Client, url, user, query string) server.QueryResponse {
	body, _ := json.Marshal(server.QueryRequest{User: user, Query: query})
	resp, err := client.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		b.Fatal(err)
	}
	return qr
}

// BenchmarkServerSingleTenantHit measures the serving hot path end to end
// over HTTP: one tenant, a warmed cache, every request a hit — encode,
// search, respond. This is the per-request overhead the serving layer
// adds on top of BenchmarkEndToEndQuery's in-process path.
func BenchmarkServerSingleTenantHit(b *testing.B) {
	ts := newBenchServer(b)
	queries := []string{
		"how does federated averaging aggregate client updates",
		"what storage does the embedding cache consume",
		"explain the context chain verification step",
		"why does quantisation preserve cosine ordering",
	}
	warm := http.Client{}
	for _, q := range queries {
		benchQuery(b, &warm, ts.URL, "tenant-0", q) // miss: populate
	}
	var hits atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		i := 0
		for pb.Next() {
			qr := benchQuery(b, client, ts.URL, "tenant-0", queries[i%len(queries)])
			if qr.Hit {
				hits.Add(1)
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(hits.Load())/float64(b.N), "hit-ratio")
}

// BenchmarkServerCrossTenantEncode measures concurrent multi-tenant
// serving throughput where every request needs an encode (distinct queries
// per tenant), each on its own request's goroutine.
func BenchmarkServerCrossTenantEncode(b *testing.B) {
	ts := newBenchServer(b)
	var user atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		u := fmt.Sprintf("tenant-%d", user.Add(1))
		i := 0
		for pb.Next() {
			benchQuery(b, client, ts.URL, u, fmt.Sprintf("distinct question %d for %s", i, u))
			i++
		}
	})
}

// The large-tenant operating point: a cache big enough that the index
// tiers separate clearly, at the PCA-compressed dimensionality
// (§III-A.4).
const (
	largeTenantN   = 20000
	largeTenantDim = 64
)

// largeTenantCache builds the benchmark cache for the named tier,
// populated with the fixed-seed clustered corpus, plus a near-duplicate
// probe.
func largeTenantCache(b *testing.B, tier string) (*cache.Cache, []float32) {
	var c *cache.Cache
	switch tier {
	case "scan":
		c = cache.New(largeTenantDim, 0, cache.LRU{})
	case "ivf":
		c = cache.NewWithIndex(largeTenantDim, 0, cache.LRU{},
			index.NewIVF(largeTenantDim, index.IVFConfig{NList: 141, NProbe: 12, Seed: 1}))
	case "adaptive":
		adaptive := index.NewAdaptive(largeTenantDim, index.AdaptiveConfig{})
		c = cache.NewWithIndex(largeTenantDim, 0, cache.LRU{}, adaptive)
		defer adaptive.WaitMigration()
	default:
		b.Fatalf("unknown tier %q", tier)
	}
	rng := rand.New(rand.NewSource(7))
	vecs := dataset.ClusteredVectors(rng, largeTenantN, 128, largeTenantDim, 0.4)
	for i, v := range vecs {
		if _, err := c.Put(fmt.Sprintf("q%d", i), "r", v, cache.NoParent); err != nil {
			b.Fatal(err)
		}
	}
	return c, dataset.PerturbUnit(rng, vecs[0], 0.2)
}

// BenchmarkLargeCacheSearch compares the cache's similarity-search path
// across the index tiers at the large-tenant operating point (20k
// entries × 64 dims): the exact scan versus a hand-sized IVF and the
// Adaptive index every tenant gets, settled on whatever tier its size
// picked. This is the quantity the adaptive tiering trades on — the
// same FindSimilar call, orders of magnitude apart in work.
func BenchmarkLargeCacheSearch(b *testing.B) {
	for _, tier := range []string{"scan", "ivf", "adaptive"} {
		// Built here, not inside b.Run: the testing package calls this
		// function once but re-invokes each sub-benchmark with growing
		// b.N, and a 20k-entry index build per calibration round would
		// dominate the run.
		c, probe := largeTenantCache(b, tier)
		b.Run(tier, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.FindSimilar(probe, 5, 0.8)
			}
		})
	}
}
