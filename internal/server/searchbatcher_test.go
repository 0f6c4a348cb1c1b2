package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/vecmath"
)

// newSearchTestCache builds a cache with n deterministic unit-vector
// entries and returns it alongside the entry embeddings (probe fodder).
func newSearchTestCache(t *testing.T, dim, n int, seed int64) (*cache.Cache, [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := cache.New(dim, 0, cache.LRU{})
	embs := make([][]float32, n)
	for i := 0; i < n; i++ {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		vecmath.Normalize(v)
		embs[i] = v
		if _, err := c.Put(fmt.Sprintf("q%d", i), fmt.Sprintf("r%d", i), v, cache.NoParent); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	return c, embs
}

func matchesEqual(got, want []cache.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Entry != want[i].Entry || got[i].Score != want[i].Score {
			return fmt.Errorf("match[%d] = (%d, %v), want (%d, %v)",
				i, got[i].Entry.ID, got[i].Score, want[i].Entry.ID, want[i].Score)
		}
	}
	return nil
}

// TestSearchBatcherMatchesDirect parks 200 probes of one cache behind a
// search in flight and checks every reply is bit-identical — same entries,
// same scores, same order — to the direct FindSimilarAppend path, and that
// they were served in exactly ⌈200/64⌉ multi-probe passes.
func TestSearchBatcherMatchesDirect(t *testing.T) {
	const dim, n, k = 16, 200, 5
	const tau = float32(0.1)
	c, embs := newSearchTestCache(t, dim, n, 31)
	sb := NewSearchBatcher(BatcherConfig{MaxBatch: 64})
	defer sb.Close()

	want := make([][]cache.Match, len(embs))
	for i, e := range embs {
		want[i] = c.FindSimilarAppend(e, k, tau, nil)
	}
	sizes := coalescedBurst(t, sb, 1, n, func(i int) {
		if err := matchesEqual(sb.FindSimilar(c, embs[i], k, tau, nil), want[i]); err != nil {
			t.Errorf("probe %d: %v", i, err)
		}
	})

	if want := []int{64, 64, 64, 8}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("pass sizes %v, want %v", sizes, want)
	}
	leaders := int64(runtime.GOMAXPROCS(0))
	if st := sb.Stats(); st.Requests != n+leaders || st.Batches != 4+leaders || st.Coalesced != n {
		t.Errorf("Stats = %+v, want %d requests in %d passes, %d coalesced", st, n+leaders, 4+leaders, n)
	}
}

// TestSearchBatcherMixedGroups interleaves two caches and two (k, tau)
// settings in one burst: it must be served as one pass per (cache, k,
// tau), each kind behind its own leaders (the first four jobs are one of
// each kind), and every reply must still match its own direct path.
func TestSearchBatcherMixedGroups(t *testing.T) {
	const dim = 16
	c1, embs1 := newSearchTestCache(t, dim, 100, 7)
	c2, embs2 := newSearchTestCache(t, dim, 100, 8)
	sb := NewSearchBatcher(BatcherConfig{MaxBatch: 256}) // each kind's 50 are one pass
	defer sb.Close()

	type job struct {
		c   *cache.Cache
		emb []float32
		k   int
		tau float32
	}
	var jobs []job
	for i := 0; i < 50; i++ {
		jobs = append(jobs,
			job{c1, embs1[i], 5, 0.1},
			job{c2, embs2[i], 5, 0.1},
			job{c1, embs1[i+50], 3, 0.5},
			job{c2, embs2[i+50], 3, 0.5},
		)
	}
	want := make([][]cache.Match, len(jobs))
	for i, j := range jobs {
		want[i] = j.c.FindSimilarAppend(j.emb, j.k, j.tau, nil)
	}
	sizes := coalescedBurst(t, sb, 4, len(jobs), func(i int) {
		j := jobs[i]
		if err := matchesEqual(sb.FindSimilar(j.c, j.emb, j.k, j.tau, nil), want[i]); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	})
	if want := []int{50, 50, 50, 50}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("group sizes %v, want %v", sizes, want)
	}
}

// TestSearchBatcherSingletonHandback pins the zero-latency promise: a
// lone request runs directly on its caller's goroutine at once, it does
// not linger hoping for company.
func TestSearchBatcherSingletonHandback(t *testing.T) {
	c, embs := newSearchTestCache(t, 8, 50, 13)
	sb := NewSearchBatcher(BatcherConfig{})
	defer sb.Close()
	start := time.Now()
	got := sb.FindSimilar(c, embs[3], 5, 0.1, nil)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("lone search took %v", elapsed)
	}
	want := c.FindSimilarAppend(embs[3], 5, 0.1, nil)
	if err := matchesEqual(got, want); err != nil {
		t.Fatal(err)
	}
	st := sb.Stats()
	if st.Requests != 1 || st.Coalesced != 0 {
		t.Fatalf("Stats = %+v, want 1 request, 0 coalesced", st)
	}
}

// TestSearchBatcherAppendsToDst pins the append contract: matches land
// after the caller's existing elements, on the direct route (the held
// leaders) and the coalesced one (the eight probes behind them) alike.
func TestSearchBatcherAppendsToDst(t *testing.T) {
	c, embs := newSearchTestCache(t, 8, 50, 17)
	sb := NewSearchBatcher(BatcherConfig{MaxBatch: 8})
	defer sb.Close()
	sentinel := cache.Match{Score: -42}
	sizes := coalescedBurst(t, sb, 1, 8, func(i int) {
		dst := append(make([]cache.Match, 0, 16), sentinel)
		got := sb.FindSimilar(c, embs[i], 3, 0.1, dst)
		if len(got) < 1 || got[0].Score != -42 {
			t.Errorf("probe %d: sentinel lost: %+v", i, got)
			return
		}
		want := c.FindSimilarAppend(embs[i], 3, 0.1, nil)
		if err := matchesEqual(got[1:], want); err != nil {
			t.Errorf("probe %d: %v", i, err)
		}
	})
	if want := []int{8}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("pass sizes %v, want %v", sizes, want)
	}
}

// TestSearchBatcherConcurrentSearchAndClose races searches against Close
// under -race: every call must return correct results via one route or
// the other, with no stranded caller, and be counted with the pass that
// served it.
func TestSearchBatcherConcurrentSearchAndClose(t *testing.T) {
	c, embs := newSearchTestCache(t, 8, 50, 19)
	sb := NewSearchBatcher(BatcherConfig{MaxBatch: 4})
	want := c.FindSimilarAppend(embs[0], 5, 0.1, nil)
	var wg sync.WaitGroup
	var served, sizes atomic.Int64
	sb.OnBatch(func(size int) { sizes.Add(int64(size)) })
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := sb.FindSimilar(c, embs[0], 5, 0.1, nil)
			if err := matchesEqual(got, want); err != nil {
				t.Errorf("racing search: %v", err)
				return
			}
			served.Add(1)
		}()
	}
	sb.Close()
	wg.Wait()
	if served.Load() != 64 {
		t.Fatalf("served %d of 64 racing searches", served.Load())
	}
	if st := sb.Stats(); st.Requests != 64 || st.Requests != sizes.Load() {
		t.Errorf("Stats = %+v with pass sizes summing to %d, want 64 requests = Σ sizes", st, sizes.Load())
	}
	// Close is idempotent.
	sb.Close()
}

// TestSearchBatcherIndependentCachesDoNotSerialise: while a leader is held
// inside its pass on one cache, a search of another cache returns without
// waiting for it, and when both are done the batcher holds no per-cache
// state.
func TestSearchBatcherIndependentCachesDoNotSerialise(t *testing.T) {
	a, embsA := newSearchTestCache(t, 8, 50, 29)
	b, embsB := newSearchTestCache(t, 8, 50, 30)
	sb := NewSearchBatcher(BatcherConfig{})
	defer sb.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var passes atomic.Int64
	sb.OnBatch(func(int) {
		if passes.Add(1) == 1 {
			close(held)
			<-release
		}
	})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		sb.FindSimilar(a, embsA[0], 5, 0.1, nil)
	}()
	<-held
	other := make(chan []cache.Match, 1)
	go func() { other <- sb.FindSimilar(b, embsB[0], 5, 0.1, nil) }()
	select {
	case got := <-other:
		if err := matchesEqual(got, b.FindSimilarAppend(embsB[0], 5, 0.1, nil)); err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("a search of cache B is waiting behind the pass in flight on cache A")
	}
	close(release)
	<-leaderDone
	sb.comb.mu.Lock()
	defer sb.comb.mu.Unlock()
	if n := len(sb.comb.lanes); n != 0 {
		t.Errorf("%d caches still marked in flight with no search running", n)
	}
}
