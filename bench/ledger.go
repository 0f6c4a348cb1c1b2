package main

import "strings"

// ledger is the layer view of a traced replay's measured phase: sums of
// span durations by layer, and the counts taken at the same boundaries.
// All durations are nanoseconds.
type ledger struct {
	Requests int64 // client.request spans

	ClientNs, HandlerNs int64

	OuterEncodes, OuterNs   int64 // encodes as tenants see them (wait + busy)
	InnerNs, InnerTexts     int64 // busy time of calls on the model; texts they encoded
	InnerWeightedNs         int64 // Σ inner duration × texts in that call
	Searches, SearchNs      int64
	Candidates              int64
	LLMCalls, LLMNs         int64
	LLMSimulatedNs          int64
	Builds, BuildNs         int64
	StoreOps, StoreNs       int64
	Fsyncs, FsyncNs         int64
	BytesWritten, BytesRead int64
}

// newLedger sums the spans that started in [from, to): the measured
// phase. Warm-up and shutdown spans fall outside it.
func newLedger(spans []span, from, to int64) ledger {
	var l ledger
	for i := range spans {
		s := &spans[i]
		if s.Start < from || s.Start >= to {
			continue
		}
		d := s.End - s.Start
		switch {
		case s.Name == spanClient:
			l.Requests++
			l.ClientNs += d
		case s.Name == spanHandler:
			l.HandlerNs += d
		case s.Name == spanEncodeOuter:
			l.OuterEncodes++
			l.OuterNs += d
		case s.Name == spanEncodeInner:
			l.InnerNs += d
			l.InnerTexts += s.N
			l.InnerWeightedNs += d * s.N
		case s.Name == spanSearch:
			l.Searches++
			l.SearchNs += d
			l.Candidates += s.N
		case s.Name == spanLLM:
			l.LLMCalls++
			l.LLMNs += d
			l.LLMSimulatedNs += s.N
		case s.Name == spanTenantBuild:
			l.Builds++
			l.BuildNs += d
		case strings.HasPrefix(s.Name, spanStorePrefix):
			l.StoreOps++
			l.StoreNs += d
			switch s.Name {
			case spanStoreFsync:
				l.Fsyncs++
				l.FsyncNs += d
			case spanStoreWrite:
				l.BytesWritten += s.N
			case spanStoreRead:
				l.BytesRead += s.N
			}
		}
	}
	return l
}

// childrenNs is the time the handler spent inside its child spans. They
// run one after another on the handler's goroutine, so they never
// overlap and the handler's self time is its duration minus this.
func (l ledger) childrenNs() int64 {
	return l.OuterNs + l.SearchNs + l.LLMNs + l.StoreNs + l.BuildNs
}

func perUs(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// metrics is the span-derived part of the per-layer view. The ledger
// identities hold by construction and are tested:
//
//	client RTT mean  = net.transport_us + server.handler_us
//	server.handler_us = Σ children per request + server.self_us
func (l ledger) metrics() []metric {
	n := l.Requests
	req := int(n)
	return []metric{
		{"trace.client_rtt_mean_us", perUs(l.ClientNs, n), "us", req},
		{"net.transport_us", perUs(l.ClientNs-l.HandlerNs, n), "us", req},
		{"server.handler_us", perUs(l.HandlerNs, n), "us", req},
		{"server.self_us", perUs(l.HandlerNs-l.childrenNs(), n), "us", req},
		{"server.encode_wait_us", perUs(l.OuterNs-l.InnerWeightedNs, l.OuterEncodes), "us", int(l.OuterEncodes)},
		{"server.encode_outer_us_per_req", perUs(l.OuterNs, n), "us", req},
		{"server.tenant_build_us", perUs(l.BuildNs, l.Builds), "us", int(l.Builds)},
		{"server.tenant_build_us_per_req", perUs(l.BuildNs, n), "us", req},
		{"embed.encode_us", perUs(l.InnerNs, l.InnerTexts), "us", int(l.InnerTexts)},
		{"embed.encodes_per_req", ratio(l.InnerTexts, n), "ratio", req},
		{"cache.search_us", perUs(l.SearchNs, l.Searches), "us", int(l.Searches)},
		{"cache.search_us_per_req", perUs(l.SearchNs, n), "us", req},
		{"cache.searches_per_req", ratio(l.Searches, n), "ratio", req},
		{"cache.candidates_per_search", ratio(l.Candidates, l.Searches), "ratio", int(l.Searches)},
		{"llmsim.calls_per_kreq", 1000 * ratio(l.LLMCalls, n), "count", req},
		{"llmsim.call_us", perUs(l.LLMNs, l.LLMCalls), "us", int(l.LLMCalls)},
		{"llmsim.call_us_per_req", perUs(l.LLMNs, n), "us", req},
		{"llmsim.simulated_ms_per_call", perUs(l.LLMSimulatedNs, l.LLMCalls) / 1e3, "ms", int(l.LLMCalls)},
		{"store.io_us_per_kreq", 1000 * perUs(l.StoreNs, n), "us", int(l.StoreOps)},
		{"store.fsyncs_per_kreq", 1000 * ratio(l.Fsyncs, n), "count", req},
		{"store.fsync_us", perUs(l.FsyncNs, l.Fsyncs), "us", int(l.Fsyncs)},
		{"store.bytes_written_per_kreq", 1000 * ratio(l.BytesWritten, n), "count", req},
		{"store.bytes_read_per_kreq", 1000 * ratio(l.BytesRead, n), "count", req},
	}
}
