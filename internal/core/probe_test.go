package core

import (
	"context"
	"testing"
	"unsafe"

	"repro/internal/cache"
)

// TestQueryReturnsProbeOnce drives every return path of QueryContext and
// Session.AskContext and checks the probe pool after each: every buffer
// the encoder handed out during the call (the probe, plus one per context
// turn a chain check encoded) is back in the pool exactly once. A buffer
// kept would be a leak; a buffer returned twice would be shared by two
// requests.
func TestQueryReturnsProbeOnce(t *testing.T) {
	enc := &countingEncoder{stubEncoder: newStub(64)}
	enc.aliasNear(7, 0.85, "what is a semantic cache", "relaxed match")
	llm := &flakyLLM{mode: "ok"}
	opts := Options{Encoder: enc, LLM: llm, Tau: 0.9, TopK: 5, DegradedTauDelta: 0.1}
	c := New(opts)
	opts.LLM = nil
	noLLM := New(opts)

	ctx := context.Background()
	s1, s2, s3 := c.NewSession(), c.NewSession(), c.NewSession()
	paths := []struct {
		name    string
		client  *Client
		mode    string
		call    func() (Result, error)
		hit     bool
		wantErr bool
	}{
		{name: "miss", call: func() (Result, error) { return c.QueryContext(ctx, "what is a semantic cache") }},
		{name: "hit", call: func() (Result, error) { return c.QueryContext(ctx, "what is a semantic cache") }, hit: true},
		{name: "session miss", call: func() (Result, error) { return s1.AskContext(ctx, "plot a line") }},
		{name: "session follow-up miss", call: func() (Result, error) { return s1.AskContext(ctx, "make it red") }},
		{name: "session hit", call: func() (Result, error) { return s2.AskContext(ctx, "plot a line") }, hit: true},
		{name: "session follow-up hit", call: func() (Result, error) { return s2.AskContext(ctx, "make it red") }, hit: true},
		{name: "session root", call: func() (Result, error) { return s3.AskContext(ctx, "a root to evict") }},
		{name: "re-rooted miss", call: func() (Result, error) {
			c.Cache().Remove(s3.parent)
			return s3.AskContext(ctx, "a follow-up of an evicted root")
		}},
		{name: "upstream error", mode: "err", call: func() (Result, error) { return c.QueryContext(ctx, "fails upstream") }, wantErr: true},
		{name: "shed, no degraded match", mode: "open", call: func() (Result, error) { return c.QueryContext(ctx, "nothing near this") }, wantErr: true},
		{name: "degraded hit", mode: "open", call: func() (Result, error) { return c.QueryContext(ctx, "relaxed match") }, hit: true},
		{name: "session shed", mode: "open", call: func() (Result, error) { return s1.AskContext(ctx, "nothing near this either") }, wantErr: true},
		{name: "no LLM", client: noLLM, call: func() (Result, error) { return noLLM.QueryContext(ctx, "a miss with no upstream") }, wantErr: true},
	}
	for _, p := range paths {
		cl := p.client
		if cl == nil {
			cl = c
		}
		llm.mode = p.mode // "" answers like "ok"
		before, encodes := len(cl.probeBufs), enc.encodes
		res, err := p.call()
		if (err != nil) != p.wantErr || res.Hit != p.hit {
			t.Fatalf("%s: hit=%v err=%v, want hit=%v error=%v", p.name, res.Hit, err, p.hit, p.wantErr)
		}
		if got, want := len(cl.probeBufs)-before, enc.encodes-encodes; got != want {
			t.Fatalf("%s: pool grew by %d buffers, want %d (one per encode)", p.name, got, want)
		}
		assertDistinctBuffers(t, p.name, cl)
	}
	if r, err := s3.AskContext(ctx, "after the re-root"); err != nil || r.Entry == nil || len(c.Cache().Chain(r.Entry.ID)) != 1 {
		t.Fatalf("re-rooted session did not continue from its new root: %+v, %v", r, err)
	}
}

// assertDistinctBuffers drains c's probe pool, fails if two of its
// buffers share a backing array, and refills it in the same order.
func assertDistinctBuffers(t *testing.T, name string, c *Client) {
	t.Helper()
	var bufs [][]float32
	seen := make(map[*float32]bool)
	for len(c.probeBufs) > 0 {
		b := <-c.probeBufs
		p := unsafe.SliceData(b)
		if seen[p] {
			t.Fatalf("%s: a probe buffer is in the pool twice", name)
		}
		seen[p] = true
		bufs = append(bufs, b)
	}
	for _, b := range bufs {
		c.probeBufs <- b
	}
}

// countingSearcher counts the searches routed through it.
type countingSearcher struct{ n int }

func (s *countingSearcher) FindSimilar(c *cache.Cache, emb []float32, k int, tau float32, dst []cache.Match) []cache.Match {
	s.n++
	return c.FindSimilarAppend(emb, k, tau, dst)
}

// TestDegradedRetrySearchesThroughSearcher: the degraded retry of a shed
// miss searches through Options.Searcher like the lookup before it, so a
// decorator sees both searches.
func TestDegradedRetrySearchesThroughSearcher(t *testing.T) {
	enc := newStub(64)
	enc.aliasNear(7, 0.85, "what is a semantic cache", "relaxed match")
	llm := &flakyLLM{mode: "ok"}
	srch := &countingSearcher{}
	c := New(Options{Encoder: enc, LLM: llm, Tau: 0.9, TopK: 5, DegradedTauDelta: 0.1, Searcher: srch})
	if _, err := c.QueryContext(context.Background(), "what is a semantic cache"); err != nil {
		t.Fatal(err)
	}
	llm.mode = "open"
	srch.n = 0
	r, err := c.QueryContext(context.Background(), "relaxed match")
	if err != nil || !r.Degraded {
		t.Fatalf("degraded=%v err=%v, want a degraded hit", r.Degraded, err)
	}
	if srch.n != 2 {
		t.Fatalf("Searcher saw %d searches, want 2 (lookup and degraded retry)", srch.n)
	}
}
