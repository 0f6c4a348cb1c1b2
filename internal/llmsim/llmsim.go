// Package llmsim simulates the LLM web service MeanCache fronts (a local
// Llama 2 service in the paper's testbed). The simulator reproduces the
// property the response-time experiment (Figure 5) measures — LLM inference
// takes hundreds of milliseconds to seconds, dominated by per-token
// generation, while a local cache hit takes milliseconds — without needing
// GPUs.
//
// The service can run with real sleeps (for the interactive examples) or in
// virtual-time mode (for experiments and tests), where the latency that
// *would* have been incurred is computed deterministically and returned
// without blocking.
package llmsim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"repro/internal/tokenizer"
)

// Config describes the simulated service's latency model.
type Config struct {
	// BaseLatency covers prompt processing and network round trip.
	BaseLatency time.Duration
	// PerToken is the generation time per output token.
	PerToken time.Duration
	// JitterFrac adds ±JitterFrac relative uniform noise to each response
	// time, seeded deterministically per query.
	JitterFrac float64
	// MaxTokens caps response length, as the paper caps responses at 50
	// tokens to reflect practical sizes.
	MaxTokens int
	// Sleep selects real-time mode: Query blocks for the simulated
	// duration. When false, Query returns immediately and reports the
	// duration it would have taken.
	Sleep bool
	// Seed drives response generation and jitter.
	Seed int64
}

// DefaultConfig mirrors the paper's observed no-cache response times
// (roughly 0.5–1 s for 50-token responses, Figure 5).
func DefaultConfig() Config {
	return Config{
		BaseLatency: 120 * time.Millisecond,
		PerToken:    14 * time.Millisecond,
		JitterFrac:  0.15,
		MaxTokens:   50,
		Sleep:       false,
		Seed:        1,
	}
}

// Service is a deterministic simulated LLM web service. It is safe for
// concurrent use. Responses are a pure function of the query text and
// seed, so duplicate queries receive identical responses — which is what
// makes caching them sound.
type Service struct {
	cfg     Config
	queries atomic.Int64

	// slowdown (float bits, default 1.0) multiplies response times, and
	// failing forces errors — the degradation knobs the overload harness
	// turns to brown out or kill the upstream mid-run.
	slowdown atomic.Uint64
	failing  atomic.Bool
}

// ErrInduced is returned while the service is in induced-failure mode
// (SetFailing(true)) — the overload harness's stand-in for a dead upstream.
var ErrInduced = errors.New("llmsim: induced upstream failure")

// New builds a Service.
func New(cfg Config) *Service {
	if cfg.MaxTokens <= 0 {
		cfg.MaxTokens = 50
	}
	s := &Service{cfg: cfg}
	s.slowdown.Store(math.Float64bits(1))
	return s
}

// SetSlowdown scales subsequent response times by factor (1 = nominal).
// The overload harness uses it to simulate an upstream brown-out.
func (s *Service) SetSlowdown(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	s.slowdown.Store(math.Float64bits(factor))
}

// SetFailing toggles induced-failure mode: queries error immediately
// instead of answering, as if the upstream were down.
func (s *Service) SetFailing(v bool) { s.failing.Store(v) }

// Queries reports how many queries the service has processed — the load
// metric a cache is meant to reduce.
func (s *Service) Queries() int { return int(s.queries.Load()) }

// Query generates the response to q and the (simulated) time it took.
// In Sleep mode the call blocks for that duration.
func (s *Service) Query(q string) (response string, took time.Duration) {
	response, took, _ = s.QueryContext(context.Background(), q)
	return response, took
}

// QueryContext is Query under a caller deadline: in Sleep mode the block
// honours ctx (returning ctx.Err() early — a timed-out inference is
// abandoned, not delivered late), and induced-failure mode surfaces
// ErrInduced. Virtual-time mode never blocks, so ctx only gates entry.
func (s *Service) QueryContext(ctx context.Context, q string) (response string, took time.Duration, err error) {
	if err := ctx.Err(); err != nil {
		return "", 0, err
	}
	s.queries.Add(1)
	if s.failing.Load() {
		return "", s.cfg.BaseLatency, ErrInduced
	}

	rng := rngPool.Get().(*rand.Rand)
	response = s.respond(q, rng)
	took = s.cfg.BaseLatency + time.Duration(countFields(response))*s.cfg.PerToken
	if s.cfg.JitterFrac > 0 {
		rng.Seed(s.cfg.Seed ^ int64(hash(q)))
		j := 1 + s.cfg.JitterFrac*(2*rng.Float64()-1)
		took = time.Duration(float64(took) * j)
	}
	rngPool.Put(rng)
	if factor := math.Float64frombits(s.slowdown.Load()); factor != 1 {
		took = time.Duration(float64(took) * factor)
	}
	if s.cfg.Sleep {
		t := time.NewTimer(took)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return "", took, ctx.Err()
		}
	}
	return response, took, nil
}

// rngPool holds the generators QueryContext re-seeds in place: a
// generator carries 4.9 KB of state, and building two per call was
// nearly half of the bytes a serving process allocated. Seed resets a generator to
// exactly the state rand.New(rand.NewSource(seed)) starts in, so a
// pooled one draws the same numbers a fresh one would.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// respond deterministically synthesises a response whose length depends on
// the query, bounded by MaxTokens. It seeds rng from q.
func (s *Service) respond(q string, rng *rand.Rand) string {
	words := tokenizer.Normalize(q)
	rng.Seed(int64(hash(q) ^ uint64(s.cfg.Seed)))
	n := s.cfg.MaxTokens/2 + rng.Intn(s.cfg.MaxTokens/2+1)
	// Sized for the preamble plus n of responseVocab's words (at most
	// 13 bytes each, with their space), so the text is built in place.
	b := make([]byte, 0, len(q)+16+14*n)
	b = append(b, "Regarding "...)
	b = strconv.AppendQuote(b, strings.Join(firstN(words, 4), " "))
	b = append(b, ':')
	for i := 0; i < n; i++ {
		b = append(b, ' ')
		b = append(b, responseVocab[rng.Intn(len(responseVocab))]...)
	}
	return string(b)
}

// countFields is len(strings.Fields(s)) without building the slice.
func countFields(s string) int {
	n, inField := 0, false
	for _, r := range s {
		space := unicode.IsSpace(r)
		if !space && !inField {
			n++
		}
		inField = !space
	}
	return n
}

func firstN(words []string, n int) []string {
	if len(words) < n {
		return words
	}
	return words[:n]
}

var responseVocab = []string{
	"the", "approach", "works", "by", "first", "considering", "each",
	"component", "then", "combining", "results", "carefully", "note",
	"that", "performance", "depends", "on", "configuration", "and",
	"you", "should", "verify", "with", "your", "own", "data", "finally",
	"consider", "edge", "cases", "before", "deploying", "this", "solution",
}

// hash is 64-bit FNV-1a, as hash/fnv computes it, without its allocation.
func hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
