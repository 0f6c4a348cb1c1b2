package server

import "repro/internal/cache"

// Deprecated: SearchBatcher coalesces nothing: every search is the
// direct cache.FindSimilarAppend, as core's default searcher runs it.
// The type stays only because the frozen bench/stack.go builds one, and
// goes in the benchmark PR that re-captures BENCHMARK.json.
type SearchBatcher struct{}

// NewSearchBatcher returns the pass-through searcher; the config is ignored.
func NewSearchBatcher(BatcherConfig) *SearchBatcher { return &SearchBatcher{} }

// FindSimilar implements cache.Searcher with c.FindSimilarAppend.
func (*SearchBatcher) FindSimilar(c *cache.Cache, emb []float32, k int, tau float32, dst []cache.Match) []cache.Match {
	return c.FindSimilarAppend(emb, k, tau, dst)
}

// Close does nothing.
func (*SearchBatcher) Close() {}

// Stats is always zero.
func (*SearchBatcher) Stats() BatcherStats { return BatcherStats{} }
