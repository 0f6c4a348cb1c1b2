package llmsim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/raceflag"
)

func TestDeterministicResponses(t *testing.T) {
	s := New(DefaultConfig())
	r1, d1 := s.Query("what is federated learning")
	r2, d2 := s.Query("what is federated learning")
	if r1 != r2 {
		t.Fatal("same query produced different responses")
	}
	if d1 != d2 {
		t.Fatalf("same query produced different durations: %v vs %v", d1, d2)
	}
}

func TestDistinctQueriesDistinctResponses(t *testing.T) {
	s := New(DefaultConfig())
	r1, _ := s.Query("query one about cats")
	r2, _ := s.Query("query two about dogs")
	if r1 == r2 {
		t.Fatal("distinct queries produced identical responses")
	}
}

func TestLatencyInPaperRange(t *testing.T) {
	s := New(DefaultConfig())
	for _, q := range []string{"a", "how do i plot a line", "explain quantum gravity simply"} {
		_, d := s.Query(q)
		if d < 200*time.Millisecond || d > 1500*time.Millisecond {
			t.Fatalf("simulated latency %v outside the paper's 0.2–1.5s band", d)
		}
	}
}

func TestVirtualTimeDoesNotSleep(t *testing.T) {
	s := New(DefaultConfig()) // Sleep: false
	start := time.Now()
	_, simulated := s.Query("some query")
	if wall := time.Since(start); wall > simulated/4 {
		t.Fatalf("virtual-time query took %v wall time (simulated %v)", wall, simulated)
	}
}

func TestSleepMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sleep = true
	cfg.BaseLatency = 20 * time.Millisecond
	cfg.PerToken = 0
	cfg.JitterFrac = 0
	s := New(cfg)
	start := time.Now()
	s.Query("block please")
	if wall := time.Since(start); wall < 20*time.Millisecond {
		t.Fatalf("sleep mode returned in %v, want >= 20ms", wall)
	}
}

func TestMaxTokensRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxTokens = 10
	s := New(cfg)
	resp, _ := s.Query("anything at all")
	// Allow the "Regarding ...:" preamble plus at most MaxTokens words.
	if n := len(strings.Fields(resp)); n > 10+6 {
		t.Fatalf("response has %d words, want <= ~16", n)
	}
}

func TestQueriesCounter(t *testing.T) {
	s := New(DefaultConfig())
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Query("count me")
		}()
	}
	wg.Wait()
	if s.Queries() != 10 {
		t.Fatalf("Queries = %d, want 10", s.Queries())
	}
}

func TestHTTPServerRoundTrip(t *testing.T) {
	svc := New(DefaultConfig())
	srv, err := Serve(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	c := NewClient(srv.Addr())
	direct, directDur := svc.Query("http round trip test")
	viaHTTP, httpDur, err := c.QueryContext(context.Background(), "http round trip test")
	if err != nil {
		t.Fatalf("QueryContext: %v", err)
	}
	if viaHTTP != direct {
		t.Fatalf("HTTP response %q differs from direct %q", viaHTTP, direct)
	}
	// Reported latency must include the simulated inference time (allow
	// the microsecond truncation of the wire format).
	if httpDur < directDur-time.Millisecond {
		t.Fatalf("HTTP latency %v below simulated inference %v", httpDur, directDur)
	}
	if svc.Queries() != 2 {
		t.Fatalf("Queries = %d, want 2", svc.Queries())
	}
}

func TestHTTPClientErrorPath(t *testing.T) {
	c := NewClient("127.0.0.1:1") // nothing listening
	resp, _, err := c.QueryContext(context.Background(), "will fail")
	if err == nil {
		t.Fatalf("expected an error, got response %q", resp)
	}
}

// TestQueryAllocs bounds a virtual-time call's garbage. Building two
// fresh generators per call cost 13 allocations and 12.9 KB, two 4.9 KB
// generator states of it; the pooled generator leaves the normalised
// words, the preamble's join and the response text.
func TestQueryAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("-race makes sync.Pool drop puts")
	}
	s := New(DefaultConfig())
	ctx := context.Background()
	const q = "how do I plot a line in python"
	if n := testing.AllocsPerRun(1000, func() { s.QueryContext(ctx, q) }); n > 6 {
		t.Errorf("QueryContext allocates %v times per call, want at most 6", n)
	}
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		s.QueryContext(ctx, q)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 4096 {
		t.Errorf("QueryContext allocates %d bytes per call, want at most 4096 (one generator state is 4.9 KB)", per)
	}
}

func BenchmarkQueryVirtual(b *testing.B) {
	s := New(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query("benchmark query text")
	}
}

// digestQueries are 2,000 seeded queries of 0–11 words, with
// punctuation, case and non-ASCII letters, so the digest below covers
// the normaliser and every response length.
func digestQueries() []string {
	words := []string{
		"how", "do", "I", "plot", "a", "line", "in", "Python?", "what's", "the",
		"capital", "of", "France", "explain", "quantum", "gravity", "simply",
		"café", "naïve", "Zürich", "résumé", "C++", "go-routines", "2024",
		"federated", "learning", "cache", "MeanCache", "LLM", "prompt,", "tokens.",
	}
	rng := rand.New(rand.NewSource(1))
	qs := make([]string, 2000)
	for i := range qs {
		var b strings.Builder
		for j, n := 0, rng.Intn(12); j < n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[rng.Intn(len(words))])
		}
		qs[i] = b.String()
	}
	return qs
}

// TestResponsesMatchDigest pins every byte of the simulator's output:
// the SHA-256 of 2,000 responses and their simulated durations under
// DefaultConfig. The value was taken before the generator was pooled
// and the token count stopped allocating, so both changes provably
// leave the responses and durations as they were.
func TestResponsesMatchDigest(t *testing.T) {
	const want = "18759ac64a00f915f6270bef6e3bdda165edd007c19d0c6567270dfd7fa26c9d"
	s := New(DefaultConfig())
	h := sha256.New()
	for _, q := range digestQueries() {
		resp, took, err := s.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\x00%d\n", resp, int64(took))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("digest of 2,000 responses = %s, want %s", got, want)
	}
}
