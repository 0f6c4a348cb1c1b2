package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/vecmath"
)

// stubEncoder gives tests precise control over similarity: texts mapped to
// the same vector are perfect duplicates; unmapped texts hash to pseudo-
// random unit vectors (almost orthogonal in high dimension).
type stubEncoder struct {
	dim int
	m   map[string][]float32
}

func newStub(dim int) *stubEncoder {
	return &stubEncoder{dim: dim, m: make(map[string][]float32)}
}

// alias maps texts to a shared deterministic unit vector keyed by seed.
func (s *stubEncoder) alias(seed int64, texts ...string) {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, s.dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	vecmath.Normalize(v)
	for _, t := range texts {
		s.m[t] = v
	}
}

func (s *stubEncoder) Encode(text string) []float32 {
	if v, ok := s.m[text]; ok {
		return vecmath.Clone(v)
	}
	var h int64
	for _, r := range text {
		h = h*131 + int64(r)
	}
	rng := rand.New(rand.NewSource(h))
	v := make([]float32, s.dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	vecmath.Normalize(v)
	return v
}

func (s *stubEncoder) Dim() int     { return s.dim }
func (s *stubEncoder) Name() string { return "stub" }

// stubLLM counts calls and returns a canned response.
type stubLLM struct {
	calls int
	took  time.Duration
}

func (l *stubLLM) Query(q string) (string, time.Duration) {
	l.calls++
	return "llm says: " + q, l.took
}

func newTestClient(t *testing.T, enc *stubEncoder, llm LLM) *Client {
	t.Helper()
	return New(Options{
		Encoder: enc,
		LLM:     llm,
		Tau:     0.8,
		TopK:    5,
	})
}

func TestNewPanicsWithoutEncoder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted empty Options")
		}
	}()
	New(Options{})
}

func TestMissThenHit(t *testing.T) {
	enc := newStub(64)
	enc.alias(1, "how to plot a line", "draw a line plot")
	llm := &stubLLM{took: 100 * time.Millisecond}
	c := newTestClient(t, enc, llm)

	r1, err := c.Query("how to plot a line")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r1.Hit {
		t.Fatal("first query hit an empty cache")
	}
	if llm.calls != 1 {
		t.Fatalf("LLM calls = %d, want 1", llm.calls)
	}
	if !strings.Contains(r1.Response, "how to plot a line") {
		t.Fatalf("unexpected response %q", r1.Response)
	}

	// Paraphrase (same stub vector) must hit without an LLM call.
	r2, err := c.Query("draw a line plot")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !r2.Hit {
		t.Fatal("paraphrase missed")
	}
	if llm.calls != 1 {
		t.Fatalf("LLM consulted on a cache hit: %d calls", llm.calls)
	}
	if r2.Response != r1.Response {
		t.Fatal("hit returned different response than cached")
	}
	if r2.Score < 0.99 {
		t.Fatalf("hit score = %v, want ≈1", r2.Score)
	}
	if r2.Latency >= r1.Latency {
		t.Fatalf("cache hit latency %v not below miss latency %v", r2.Latency, r1.Latency)
	}
}

func TestUnrelatedQueryMisses(t *testing.T) {
	enc := newStub(64)
	llm := &stubLLM{}
	c := newTestClient(t, enc, llm)
	c.Query("completely about cooking pasta")
	r, _ := c.Query("entirely about quantum physics")
	if r.Hit {
		t.Fatal("unrelated query produced a false hit")
	}
	if llm.calls != 2 {
		t.Fatalf("LLM calls = %d, want 2", llm.calls)
	}
}

func TestContextChainVerification(t *testing.T) {
	enc := newStub(64)
	enc.alias(10, "parent A", "parent A paraphrase")
	enc.alias(11, "parent B")
	enc.alias(12, "change the color to red", "please change the color to red")
	c := New(Options{Encoder: enc, Tau: 0.8, TopK: 5})

	// Cache: parent A (standalone) and its follow-up.
	pa, err := c.Insert("parent A", "resp A", cache.NoParent)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := c.Insert("change the color to red", "resp follow", pa); err != nil {
		t.Fatalf("Insert child: %v", err)
	}

	// Same follow-up under the same context (paraphrased parent): hit.
	r := c.Lookup("please change the color to red", []string{"parent A paraphrase"})
	if !r.Hit {
		t.Fatal("contextual duplicate missed")
	}
	if r.Response != "resp follow" {
		t.Fatalf("wrong response %q", r.Response)
	}

	// Same follow-up under a different context: must miss (the paper's Q4).
	r = c.Lookup("please change the color to red", []string{"parent B"})
	if r.Hit {
		t.Fatal("context-mismatched follow-up produced a false hit")
	}

	// Follow-up submitted with no context: must miss (chain arity).
	r = c.Lookup("please change the color to red", nil)
	if r.Hit {
		t.Fatal("contextual entry matched a standalone submission")
	}

	// Standalone cached entry must not match a contextual submission.
	r = c.Lookup("parent A paraphrase", []string{"parent B"})
	if r.Hit {
		t.Fatal("standalone entry matched a contextual submission")
	}

	// Standalone-to-standalone still works.
	r = c.Lookup("parent A paraphrase", nil)
	if !r.Hit {
		t.Fatal("standalone duplicate missed")
	}
}

func TestLongerHistoryMatchesTrailingChain(t *testing.T) {
	enc := newStub(64)
	enc.alias(20, "root question")
	enc.alias(21, "make it bigger", "also make it bigger")
	c := New(Options{Encoder: enc, Tau: 0.8, TopK: 5})
	root, _ := c.Insert("root question", "r", cache.NoParent)
	c.Insert("make it bigger", "bigger!", root)

	// Submitted history has an extra leading turn; the trailing turn
	// matches the cached chain.
	r := c.Lookup("also make it bigger", []string{"unrelated preamble", "root question"})
	if !r.Hit {
		t.Fatal("trailing-context match failed")
	}
}

func TestSessionChainsConversation(t *testing.T) {
	enc := newStub(64)
	enc.alias(30, "draw a circle")
	enc.alias(31, "change the color to red", "change color to red")
	llm := &stubLLM{}
	c := newTestClient(t, enc, llm)

	s1 := c.NewSession()
	if _, err := s1.Ask("draw a circle"); err != nil {
		t.Fatalf("Ask: %v", err)
	}
	if _, err := s1.Ask("change the color to red"); err != nil {
		t.Fatalf("Ask follow-up: %v", err)
	}
	if llm.calls != 2 {
		t.Fatalf("LLM calls = %d, want 2", llm.calls)
	}
	if s1.Turns() != 2 {
		t.Fatalf("Turns = %d, want 2", s1.Turns())
	}

	// A second identical conversation is served fully from cache.
	s2 := c.NewSession()
	r1, _ := s2.Ask("draw a circle")
	r2, _ := s2.Ask("change color to red")
	if !r1.Hit || !r2.Hit {
		t.Fatalf("repeat conversation not served from cache: %v %v", r1.Hit, r2.Hit)
	}
	if llm.calls != 2 {
		t.Fatalf("LLM re-consulted: %d calls", llm.calls)
	}

	// A different conversation with the same follow-up text must go to
	// the LLM (different context).
	enc.alias(32, "draw a square")
	s3 := c.NewSession()
	s3.Ask("draw a square")
	r, _ := s3.Ask("change color to red")
	if r.Hit {
		t.Fatal("follow-up hit across different conversations")
	}
	if llm.calls != 4 {
		t.Fatalf("LLM calls = %d, want 4", llm.calls)
	}
}

func TestSessionReset(t *testing.T) {
	enc := newStub(16)
	llm := &stubLLM{}
	c := newTestClient(t, enc, llm)
	s := c.NewSession()
	s.Ask("first")
	s.Reset()
	if s.Turns() != 0 {
		t.Fatal("Reset did not clear history")
	}
	// After reset the next query is standalone again.
	r, _ := s.Ask("second")
	if r.Hit {
		t.Fatal("fresh standalone query hit")
	}
}

func TestFeedbackRaisesTau(t *testing.T) {
	enc := newStub(16)
	c := New(Options{Encoder: enc, Tau: 0.7, FeedbackStep: 0.05})
	c.ReportFalseHit()
	if got := c.Tau(); got != 0.75 {
		t.Fatalf("Tau after feedback = %v, want 0.75", got)
	}
	for i := 0; i < 20; i++ {
		c.ReportFalseHit()
	}
	if got := c.Tau(); got > 1 {
		t.Fatalf("Tau exceeded 1: %v", got)
	}
	c.SetTau(0.8)
	if c.Tau() != 0.8 {
		t.Fatal("SetTau ignored")
	}
}

func TestFeedbackDisabledByDefault(t *testing.T) {
	enc := newStub(16)
	c := New(Options{Encoder: enc, Tau: 0.7})
	c.ReportFalseHit()
	if c.Tau() != 0.7 {
		t.Fatal("feedback adjusted tau despite FeedbackStep=0")
	}
}

func TestQueryWithoutLLMErrors(t *testing.T) {
	enc := newStub(16)
	c := New(Options{Encoder: enc, Tau: 0.7})
	if _, err := c.Query("no upstream"); err == nil {
		t.Fatal("Query without LLM succeeded on a miss")
	}
}

func TestStats(t *testing.T) {
	enc := newStub(32)
	enc.alias(40, "q", "q dup")
	llm := &stubLLM{}
	c := newTestClient(t, enc, llm)
	c.Query("q")
	c.Query("q dup")
	st := c.Stats()
	if st.LLMQueries != 1 || st.CacheHits != 1 || st.Lookups != 2 || st.CacheEntries != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.EmbeddingDims != 32 {
		t.Fatalf("EmbeddingDims = %d, want 32", st.EmbeddingDims)
	}
	if st.StorageBytes <= 0 {
		t.Fatal("StorageBytes not accounted")
	}
}

func TestCapacityEviction(t *testing.T) {
	enc := newStub(16)
	llm := &stubLLM{}
	c := New(Options{Encoder: enc, LLM: llm, Tau: 0.9, Capacity: 3})
	for _, q := range []string{"a", "b", "c", "d", "e"} {
		if _, err := c.Query(q); err != nil {
			t.Fatalf("Query(%s): %v", q, err)
		}
	}
	if got := c.Cache().Len(); got != 3 {
		t.Fatalf("cache len = %d, want capacity 3", got)
	}
}

// TestSessionSurvivesParentEviction: when another insertion path evicts a
// session's conversational parent, the session's next miss must re-root
// (cache standalone) instead of failing every subsequent query.
func TestSessionSurvivesParentEviction(t *testing.T) {
	enc := newStub(16)
	llm := &stubLLM{}
	c := New(Options{Encoder: enc, LLM: llm, Tau: 0.9, Capacity: 2})
	s := c.NewSession()
	if _, err := s.Ask("turn one"); err != nil {
		t.Fatal(err)
	}
	// Standalone inserts (empty protected chain) evict the session's
	// parent out from under it.
	for _, q := range []string{"filler a", "filler b", "filler c"} {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Ask("turn two")
	if err != nil {
		t.Fatalf("Ask after parent eviction: %v", err)
	}
	if res.Hit {
		t.Fatal("expected a miss (nothing similar cached)")
	}
	if res.Entry == nil || res.Entry.Parent != cache.NoParent {
		t.Errorf("re-rooted entry parent = %+v, want NoParent", res.Entry)
	}
	// The session must keep working from the re-rooted entry.
	if _, err := s.Ask("turn three"); err != nil {
		t.Fatalf("Ask after re-root: %v", err)
	}
}

// countingEncoder counts Encode calls on top of the stub.
type countingEncoder struct {
	*stubEncoder
	encodes int
}

func (e *countingEncoder) Encode(text string) []float32 {
	e.encodes++
	return e.stubEncoder.Encode(text)
}

// TestLookupEncodesEachContextTurnOnce: four cached follow-ups share one
// intent under four different histories (two one-turn chains, two
// two-turn chains), so a follow-up probe draws all four as candidates
// and the context check decides. The probe costs one encode plus one per
// distinct context turn a candidate's chain reaches, not one per
// candidate per turn, and the decision is what re-encoding would give.
func TestLookupEncodesEachContextTurnOnce(t *testing.T) {
	enc := &countingEncoder{stubEncoder: newStub(64)}
	c := New(Options{Encoder: enc, Tau: 0.8, TopK: 5})
	// Scores fall with i, so candidates are checked in order 0..3 and the
	// matching history (3) is reached only after three rejections.
	sims := []float32{0.99, 0.96, 0.93, 0.90}
	ids := make([]int, len(sims))
	for i, sim := range sims {
		n := string(rune('0' + i))
		grand, parent, child := "grand "+n, "parent "+n, "make it red "+n
		enc.alias(int64(100+i), grand)
		enc.alias(int64(200+i), parent)
		enc.aliasNear(int64(300+i), sim, "make it red", child)
		at := cache.NoParent
		var err error
		if i >= 2 { // entries 2 and 3 sit two turns deep
			if at, err = c.Insert(grand, "r", at); err != nil {
				t.Fatal(err)
			}
		}
		if at, err = c.Insert(parent, "r", at); err != nil {
			t.Fatal(err)
		}
		if ids[i], err = c.Insert(child, "red "+n, at); err != nil {
			t.Fatal(err)
		}
	}

	enc.encodes = 0
	r := c.Lookup("make it red", []string{"grand 3", "parent 3"})
	if !r.Hit || r.Entry.ID != ids[3] || r.Response != "red 3" || r.Candidates != 4 {
		t.Fatalf("matching history: hit=%v entry=%v response=%q candidates=%d, want entry %d of 4", r.Hit, r.Entry, r.Response, r.Candidates, ids[3])
	}
	if d := r.Score - sims[3]; d > 1e-4 || d < -1e-4 {
		t.Fatalf("matching history: score %v, want %v", r.Score, sims[3])
	}
	if enc.encodes != 3 {
		t.Fatalf("matching history: %d encodes, want 3 (probe + two context turns)", enc.encodes)
	}

	// Entry 3's grandparent agrees and its parent does not: still both
	// turns, once each.
	enc.encodes = 0
	r = c.Lookup("make it red", []string{"grand 3", "some other parent"})
	if r.Hit || r.Candidates != 4 {
		t.Fatalf("mismatching history: hit=%v candidates=%d, want a miss over 4", r.Hit, r.Candidates)
	}
	if enc.encodes != 3 {
		t.Fatalf("mismatching history: %d encodes, want 3 (probe + two context turns)", enc.encodes)
	}
}
