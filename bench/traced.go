package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
)

// traced is the layer view of one workload.
type traced struct {
	Layer        []metric
	Sent, Failed int
	WarmSent     int
	WarmFailed   int
	RTTP50us     float64 // traced client p50, for trace.overhead_frac
	Tracer       *tracer
	Ledger       ledger
	Replies      [][]reply // measured replies, per client
}

// runTraced replays the same warm-up and the first 1/tracedShare of the
// same measured list through an in-process stack with a timing decorator
// on every public seam.
func runTraced(env *buildEnv, w *workload) (*traced, error) {
	persistDir := ""
	if w.Persist {
		var err error
		persistDir, err = os.MkdirTemp(runDir, "persist-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(persistDir)
	}
	tr := newTracer()
	st, err := newStack(env.Encoder, env.Model.Tau, w.MaxTenants, persistDir, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	addr := st.srv.Addr()

	warm := w.Warmup[:]
	warmReplies := drive(addr, warm, 0, tr)
	warmSent := 0
	for i := range warm {
		warmSent += len(warm[i])
	}

	lists := w.tracedPrefix()
	enc0, srch0, reg0 := st.batcher.Stats(), st.searchBatcher.Stats(), st.reg.Stats()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	from := tr.now()
	replies := drive(addr, lists, warmSent, tr)
	to := tr.now()
	runtime.ReadMemStats(&mem1)
	enc1, srch1, reg1 := st.batcher.Stats(), st.searchBatcher.Stats(), st.reg.Stats()

	res := &traced{Tracer: tr, WarmSent: warmSent, Replies: replies}
	chk := newChecker()
	for i := range warm {
		chk.check(warm[i], warmReplies[i])
	}
	res.WarmFailed = chk.failed
	var rtts []float64
	misses := int64(0)
	for i := range lists {
		chk.check(lists[i], replies[i])
		for j := range replies[i] {
			res.Sent++
			if replies[i][j].Err != nil {
				continue
			}
			rtts = append(rtts, float64(replies[i][j].RTT.Nanoseconds())/1e3)
			if !replies[i][j].Hit {
				misses++
			}
		}
	}
	res.Failed = chk.failed - res.WarmFailed
	sort.Float64s(rtts)
	res.RTTP50us = percentile(rtts, 0.5)

	l := newLedger(tr.spans, from, to)
	res.Ledger = l
	// Every miss is exactly one upstream call: a cache that answered from
	// the upstream without saying so, or the reverse, fails here.
	if res.Failed == 0 && l.LLMCalls != misses {
		chk.violations = append(chk.violations,
			fmt.Sprintf("llmsim saw %d calls in the measured phase but clients saw %d misses", l.LLMCalls, misses))
		res.Failed++
	}
	for _, v := range chk.violations {
		fmt.Fprintf(os.Stderr, "bench: %s traced: output check: %s\n", w.Name, v)
	}

	n := float64(l.Requests)
	perK := func(d int64) float64 { return 1000 * float64(d) / n }
	res.Layer = append(l.metrics(),
		metric{"server.encode_batch_mean", ratio(enc1.Requests-enc0.Requests, enc1.Batches-enc0.Batches), "ratio", int(enc1.Batches - enc0.Batches)},
		metric{"server.search_batch_mean", ratio(srch1.Requests-srch0.Requests, srch1.Batches-srch0.Batches), "ratio", int(srch1.Batches - srch0.Batches)},
		metric{"server.activations_per_kreq", perK(reg1.Activations - reg0.Activations), "count", int(l.Requests)},
		metric{"server.evictions_per_kreq", perK(reg1.Evictions - reg0.Evictions), "count", int(l.Requests)},
		metric{"server.reloads_per_kreq", perK(reg1.Reloads - reg0.Reloads), "count", int(l.Requests)},
		// The traced process also holds the two in-process clients, so
		// these are upper bounds on the server's own share.
		metric{"proc.mallocs_per_req", float64(mem1.Mallocs-mem0.Mallocs) / n, "count", int(l.Requests)},
		metric{"proc.gc_pause_us_per_req", float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e3 / n, "us", int(mem1.NumGC - mem0.NumGC)},
		metric{"proc.heap_live_mb", float64(mem1.HeapAlloc) / (1 << 20), "MB", 1},
	)
	return res, nil
}
