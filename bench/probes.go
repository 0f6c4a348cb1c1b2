package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/embed"
	"repro/internal/store"
	"repro/internal/tokenizer"
	"repro/internal/vecmath"
)

// Defaults of cmd/cacheserve the probes need.
const (
	defaultTenantCapacity = 4096
	defaultTopK           = 5
)

// maxProbeTexts bounds the probe set: enough calls for a stable mean,
// few enough that the probes stay a small part of a traced run.
const maxProbeTexts = 256

// directProbes times single layers' public functions on the workload's
// own inputs, on one goroutine, after the replay: what a layer costs
// with no server, batcher or lock around it.
func directProbes(w *workload, model *embed.Model, tau float64) ([]metric, error) {
	// One tenant's cached texts, and probe texts from the measured list.
	var cached, probes []string
	for _, req := range w.Warmup[0] {
		if req.User == w.Warmup[0][0].User {
			cached = append(cached, req.Query)
		}
	}
	for _, req := range w.Measured[0] {
		if len(probes) == maxProbeTexts {
			break
		}
		probes = append(probes, req.Query)
	}
	if len(cached) == 0 || len(probes) == 0 {
		return nil, fmt.Errorf("workload %s has no texts to probe with", w.Name)
	}
	rows := len(cached)
	dim := model.Dim()

	// embed.tokenize_us
	tok := tokenizer.New(model.Cfg.Mode, model.Cfg.Vocab)
	var ids []int
	tokStart := time.Now()
	const tokPasses = 20
	for pass := 0; pass < tokPasses; pass++ {
		for _, text := range probes {
			ids = tok.TokenizeAppend(text, ids[:0])
		}
	}
	tokenizeUs := usSince(tokStart) / float64(tokPasses*len(probes))

	// A cache of the tenant's size holding the tenant's own embeddings.
	c := cache.New(dim, defaultTenantCapacity, cache.LRU{})
	for i, text := range cached {
		if _, err := c.Put(text, "r", model.Encode(text), cache.NoParent); err != nil {
			return nil, fmt.Errorf("probe cache fill %d: %w", i, err)
		}
	}
	probeEmb := make([][]float32, len(probes))
	for i, text := range probes {
		probeEmb[i] = model.Encode(text)
	}

	// index.search_direct_us
	var matches []cache.Match
	searchStart := time.Now()
	for _, emb := range probeEmb {
		matches = c.FindSimilarAppend(emb, defaultTopK, float32(tau), matches[:0])
	}
	searchUs := usSince(searchStart) / float64(len(probeEmb))

	// store.persist_us / store.reload_us, before the puts below grow the
	// cache past the tenant's size.
	persistUs, reloadUs, err := probePersistence(c, dim)
	if err != nil {
		return nil, err
	}

	// cache.put_us: at capacity (big_tenant) every put also evicts.
	putStart := time.Now()
	for i, emb := range probeEmb {
		if _, err := c.Put(probes[i], "r", emb, cache.NoParent); err != nil {
			return nil, fmt.Errorf("probe put %d: %w", i, err)
		}
	}
	putUs := usSince(putStart) / float64(len(probeEmb))

	// vecmath.scan: the kernel alone, over rows × dim contiguous floats.
	rng := rand.New(rand.NewSource(1))
	slab := make([]float32, rows*dim)
	for i := range slab {
		slab[i] = rng.Float32() - 0.5
	}
	out := make([]float32, rows)
	scans := 0
	scanStart := time.Now()
	for time.Since(scanStart) < 50*time.Millisecond {
		vecmath.ScanDot(probeEmb[scans%len(probeEmb)], slab, out)
		scans++
	}
	scanNsPerRow := 1e3 * usSince(scanStart) / float64(scans*rows)

	return []metric{
		{"embed.tokenize_us", tokenizeUs, "us", tokPasses * len(probes)},
		{"index.search_direct_us", searchUs, "us", len(probeEmb)},
		{"cache.put_us", putUs, "us", len(probeEmb)},
		{"vecmath.scan_ns_per_row", scanNsPerRow, "ns", scans * rows},
		// Computed, not measured: rows × dim × 4 bytes read per call.
		{"vecmath.scan_bytes_per_call", float64(rows * dim * 4), "count", scans},
		{"store.persist_us", persistUs, "us", persistReps},
		{"store.reload_us", reloadUs, "us", persistReps},
		{"env.timer_200us_us", timerDelayUs(), "us", timerSamples},
	}, nil
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

const persistReps = 5

// probePersistence times what an eviction and a cold revival do to one
// tenant's cache: SaveTo + Sync + Close, then Open + LoadFrom. Medians
// of persistReps.
func probePersistence(c *cache.Cache, dim int) (persistUs, reloadUs float64, err error) {
	dir, err := os.MkdirTemp(runDir, "probe-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	var persist, reload []float64
	for i := 0; i < persistReps; i++ {
		path := filepath.Join(dir, fmt.Sprintf("tenant-%d.cache", i))
		start := time.Now()
		st, err := store.Open(path)
		if err != nil {
			return 0, 0, err
		}
		err = c.SaveTo(st)
		if err == nil {
			err = st.Sync()
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, fmt.Errorf("persist probe: %w", err)
		}
		persist = append(persist, usSince(start))

		start = time.Now()
		st, err = store.Open(path)
		if err != nil {
			return 0, 0, err
		}
		_, err = cache.LoadFrom(st, dim, defaultTenantCapacity, cache.LRU{})
		st.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("reload probe: %w", err)
		}
		reload = append(reload, usSince(start))
	}
	return median(persist), median(reload), nil
}

const timerSamples = 200

// timerDelayUs is the median delay a 200 µs time.Timer actually takes on
// this kernel — the encode batcher's gather window as the machine keeps
// it, which explains server.encode_wait_us.
func timerDelayUs() float64 {
	delays := make([]float64, timerSamples)
	for i := range delays {
		start := time.Now()
		<-time.NewTimer(200 * time.Microsecond).C
		delays[i] = usSince(start)
	}
	sort.Float64s(delays)
	return percentile(delays, 0.5)
}
