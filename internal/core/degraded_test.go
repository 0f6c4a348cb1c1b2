package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/vecmath"
)

// aliasNear maps texts to a vector whose cosine similarity to base's
// vector is exactly sim (base is aliased first if needed).
func (s *stubEncoder) aliasNear(seed int64, sim float32, base string, texts ...string) {
	bv, ok := s.m[base]
	if !ok {
		s.alias(seed, base)
		bv = s.m[base]
	}
	// Gram-Schmidt a random direction against bv, then mix.
	rng := rand.New(rand.NewSource(seed + 12345))
	u := make([]float32, s.dim)
	for i := range u {
		u[i] = float32(rng.NormFloat64())
	}
	d := vecmath.Dot(u, bv)
	for i := range u {
		u[i] -= d * bv[i]
	}
	vecmath.Normalize(u)
	ortho := float32(math.Sqrt(float64(1 - sim*sim)))
	v := make([]float32, s.dim)
	for i := range v {
		v[i] = sim*bv[i] + ortho*u[i]
	}
	vecmath.Normalize(v)
	for _, t := range texts {
		s.m[t] = v
	}
}

// flakyLLM is an LLM whose availability the test toggles: healthy
// it answers; down it returns a cache-only rejection (as a breaker-open
// guard would); failing it returns a plain error.
type flakyLLM struct {
	calls int
	mode  string // "ok", "open", "err"
}

func (l *flakyLLM) QueryContext(ctx context.Context, q string) (string, time.Duration, error) {
	l.calls++
	switch l.mode {
	case "open":
		return "", 0, &resilience.Rejection{
			Reason: resilience.ReasonUpstreamOpen, RetryAfter: time.Second, CacheOnly: true,
		}
	case "err":
		return "", 0, errors.New("upstream exploded")
	}
	return "llm says: " + q, 50 * time.Millisecond, nil
}

// TestDegradedCacheOnlyServing: with the upstream breaker open, a near
// match below τ but above τ − DegradedTauDelta is served as a degraded
// hit; without such a match the rejection propagates for the serving
// layer to shed.
func TestDegradedCacheOnlyServing(t *testing.T) {
	enc := newStub(64)
	// "relaxed match" sits at ~0.85 similarity to the cached query:
	// under τ = 0.9, over τ − 0.1 = 0.8.
	enc.aliasNear(7, 0.85, "what is a semantic cache", "relaxed match")
	llm := &flakyLLM{mode: "ok"}
	c := New(Options{
		Encoder:          enc,
		LLM:              llm,
		Tau:              0.9,
		TopK:             5,
		DegradedTauDelta: 0.1,
	})

	// Healthy: cache the canonical query.
	r, err := c.QueryContext(context.Background(), "what is a semantic cache")
	if err != nil || r.Hit {
		t.Fatalf("seed query: hit=%v err=%v", r.Hit, err)
	}

	// Upstream down (breaker open): the paraphrase misses at τ but
	// clears the relaxed bar and is served from cache, marked Degraded.
	llm.mode = "open"
	r, err = c.QueryContext(context.Background(), "relaxed match")
	if err != nil {
		t.Fatalf("degraded lookup errored: %v", err)
	}
	if !r.Hit || !r.Degraded {
		t.Fatalf("hit=%v degraded=%v, want degraded hit", r.Hit, r.Degraded)
	}
	if r.Response != "llm says: what is a semantic cache" {
		t.Fatalf("degraded response = %q", r.Response)
	}
	if got := c.Stats().DegradedHits; got != 1 {
		t.Fatalf("DegradedHits = %d, want 1", got)
	}

	// An unrelated query has nothing within the relaxed bar: the
	// rejection surfaces so the serving layer can 503 with Retry-After.
	_, err = c.QueryContext(context.Background(), "completely unrelated question")
	rej, ok := resilience.AsRejection(err)
	if !ok || !rej.CacheOnly {
		t.Fatalf("err = %v, want cache-only rejection", err)
	}

	// Genuine upstream failures are not eligible for degraded serving.
	llm.mode = "err"
	_, err = c.QueryContext(context.Background(), "relaxed match two")
	if err == nil {
		t.Fatalf("plain upstream failure should propagate")
	}
	if _, ok := resilience.AsRejection(err); ok {
		t.Fatalf("plain failure misclassified as rejection: %v", err)
	}
}

// TestQueryContextCancelPropagates: the request context reaches the
// upstream call.
func TestQueryContextCancelPropagates(t *testing.T) {
	enc := newStub(64)
	c := New(Options{
		Encoder: enc,
		LLM:     ctxProbeLLM{},
		Tau:     0.9,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.QueryContext(ctx, "anything")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// ctxProbeLLM errors with the context's error, proving ctx reached it.
type ctxProbeLLM struct{}

func (ctxProbeLLM) QueryContext(ctx context.Context, q string) (string, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return "", 0, err
	}
	return "ok", 0, nil
}
