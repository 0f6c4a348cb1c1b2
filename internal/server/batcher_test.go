package server

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/raceflag"
	"repro/internal/vecmath"
)

// stubEncoder is a deterministic test encoder: the embedding of a text is
// a unit vector derived from its hash, so equal texts match at cosine 1
// and distinct texts (almost surely) do not. It counts calls so tests can
// observe coalescing.
type stubEncoder struct {
	dim        int
	encodes    atomic.Int64
	batchCalls atomic.Int64
	batchSizes atomic.Int64
}

func (e *stubEncoder) embed(text string) []float32 {
	h := fnv.New64a()
	h.Write([]byte(text))
	sum := h.Sum64()
	v := make([]float32, e.dim)
	i := int(sum % uint64(e.dim))
	j := int((sum / uint64(e.dim)) % uint64(e.dim))
	v[i] += 0.8
	v[j] += 0.6
	vecmath.Normalize(v)
	return v
}

func (e *stubEncoder) Encode(text string) []float32 {
	e.encodes.Add(1)
	return e.embed(text)
}

func (e *stubEncoder) EncodeBatch(texts []string) *vecmath.Matrix {
	e.batchCalls.Add(1)
	e.batchSizes.Add(int64(len(texts)))
	out := vecmath.NewMatrix(len(texts), e.dim)
	for i, t := range texts {
		copy(out.Row(i), e.embed(t))
	}
	return out
}

func (e *stubEncoder) Dim() int     { return e.dim }
func (e *stubEncoder) Name() string { return "stub" }

// parker is what coalescedBurst needs of either batcher.
type parker interface {
	OnBatch(fn func(size int))
	QueueDepth() int
}

// coalescedBurst makes coalescing deterministic under the one rule (a
// batch is whatever parked while every pass its key may have in flight
// was running). It fills kinds keys' passes: send(0..kinds-1), which must
// be requests that cannot share a pass, are each sent GOMAXPROCS times
// and held inside the OnBatch hook (it runs on the leader's goroutine,
// the pass marked in flight). It then launches send(0..n-1) concurrently,
// waits until all n have parked, and only then lets the leaders go: they
// hand on a burst that has already arrived. Returns the sizes OnBatch saw
// after the held leaders' 1s, largest first: passes are formed one at a
// time from the parked queue, so the sizes are exact, but two leaders'
// hooks may fire in either order.
func coalescedBurst(t *testing.T, b parker, kinds, n int, send func(i int)) []int {
	t.Helper()
	leaders := kinds * runtime.GOMAXPROCS(0)
	held, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var sizes []int
	b.OnBatch(func(size int) {
		mu.Lock()
		sizes = append(sizes, size)
		if len(sizes) == leaders {
			close(held)
		}
		mu.Unlock()
		<-release
	})
	var wg sync.WaitGroup
	for i := 0; i < leaders; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); send(i % kinds) }(i)
	}
	<-held
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); send(i) }(i)
	}
	for deadline := time.Now().Add(10 * time.Second); b.QueueDepth() < n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("only %d of %d requests parked behind the held leaders", b.QueueDepth(), n)
		}
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, size := range sizes[:leaders] {
		if size != 1 {
			t.Errorf("held leaders' pass sizes %v, want all 1", sizes[:leaders])
			break
		}
	}
	formed := sizes[leaders:]
	sort.Sort(sort.Reverse(sort.IntSlice(formed)))
	return formed
}

// TestBatchCoreGathersWhatHasArrived pins the one rule and the Close
// protocol on the combiner itself, at width 1 and 2, with the first width
// passes held so that what has parked at each hand-off is known exactly.
func TestBatchCoreGathersWhatHasArrived(t *testing.T) {
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprint("width ", width), func(t *testing.T) {
			entered, release := make(chan struct{}), make(chan struct{})
			var mu sync.Mutex
			var got [][]int
			record := func(pass []int) {
				mu.Lock()
				got = append(got, pass)
				mu.Unlock()
			}
			var c combiner[struct{}, int, int]
			c.init(4, func(r int) int {
				record([]int{r})
				if r < width {
					entered <- struct{}{}
					<-release
				}
				return -r
			}, func(batch []*parked[int, int]) {
				var pass []int
				for _, p := range batch {
					pass = append(pass, p.req)
					p.out = -p.req
				}
				record(pass)
			})
			c.width = width
			var wg sync.WaitGroup
			submit := func(r int) {
				defer wg.Done()
				if out := c.do(struct{}{}, r); out != -r {
					t.Errorf("do(%d) = %d, want %d", r, out, -r)
				}
			}
			// While fewer than width passes are in flight a request is
			// served at once, as a pass of one.
			for r := 0; r < width; r++ {
				wg.Add(1)
				go submit(r)
				<-entered
			}
			// Six more arrive, in order, while those passes are in flight.
			for r := width; r < width+6; r++ {
				wg.Add(1)
				go submit(r)
				for c.queueDepth() < r-width+1 {
					time.Sleep(100 * time.Microsecond)
				}
			}
			// Close lands while they are still parked.
			closed := make(chan struct{})
			go func() { c.close(); close(closed) }()
			for closing := false; !closing; time.Sleep(100 * time.Microsecond) {
				c.mu.Lock()
				closing = c.closed
				c.mu.Unlock()
			}
			// A request that arrives now does not park: it is served directly.
			wg.Add(1)
			submit(100)
			if d := c.queueDepth(); d != 6 {
				t.Errorf("queueDepth = %d after close began, want the 6 parked before it", d)
			}
			select {
			case <-closed:
				t.Fatal("close returned with parked requests unserved")
			default:
			}
			close(release)
			<-closed
			wg.Wait()
			wg.Add(1)
			submit(101)
			// Each pass is what had parked, capped at maxBatch, in arrival
			// order; nothing that parked is dropped by close. (At width 2
			// the two batches' leaders run concurrently and may record in
			// either order.)
			var want [][]int
			for r := 0; r < width; r++ {
				want = append(want, []int{r})
			}
			w := width
			want = append(want, []int{100}, []int{w, w + 1, w + 2, w + 3}, []int{w + 4, w + 5}, []int{101})
			if i := width + 1; len(got) > i+1 && got[i][0] > got[i+1][0] {
				got[i], got[i+1] = got[i+1], got[i]
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("passes %v, want %v", got, want)
			}
			if st := c.stats(); st.Requests != int64(width+8) || st.Batches != int64(width+4) || st.Coalesced != 6 {
				t.Errorf("stats = %+v, want %d requests in %d passes, 6 coalesced", st, width+8, width+4)
			}
			if len(c.lanes) != 0 {
				t.Errorf("%d keys still marked in flight with nothing running", len(c.lanes))
			}
			c.close() // redundant close just returns
		})
	}
}

func TestBatcherMatchesDirectEncode(t *testing.T) {
	enc := &stubEncoder{dim: 16}
	b := NewBatcher(enc, BatcherConfig{MaxBatch: 8})
	defer b.Close()
	for _, text := range []string{"alpha", "beta", "gamma", "alpha"} {
		got := b.Encode(text)
		want := enc.embed(text)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Encode(%q)[%d] = %v, want %v", text, i, got[i], want[i])
			}
		}
	}
	if b.Dim() != 16 {
		t.Errorf("Dim() = %d, want 16", b.Dim())
	}
}

// TestBatcherCoalescesConcurrentRequests: 20 Encodes that arrive while an
// encode is in flight are served in exactly ⌈20/8⌉ EncodeBatch calls, each
// with its own text's embedding.
func TestBatcherCoalescesConcurrentRequests(t *testing.T) {
	enc := &stubEncoder{dim: 16}
	b := NewBatcher(enc, BatcherConfig{MaxBatch: 8})
	defer b.Close()

	const n = 20
	texts := []string{"red", "green", "blue", "cyan"}
	sizes := coalescedBurst(t, b, 1, n, func(i int) {
		got, want := b.Encode(texts[i%4]), enc.embed(texts[i%4])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Encode(%q) returned another text's embedding", texts[i%4])
		}
	})

	if want := []int{8, 8, 4}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("batch sizes %v, want %v", sizes, want)
	}
	leaders := int64(runtime.GOMAXPROCS(0))
	if st := b.Stats(); st.Requests != n+leaders || st.Batches != 3+leaders || st.Coalesced != n {
		t.Errorf("Stats = %+v, want %d requests in %d batches, %d coalesced", st, n+leaders, 3+leaders, n)
	}
	if calls, rows := enc.batchCalls.Load(), enc.batchSizes.Load(); calls != 3 || rows != n {
		t.Errorf("EncodeBatch ran %d times over %d texts, want 3 over %d", calls, rows, n)
	}
	if singles := enc.encodes.Load(); singles != leaders {
		t.Errorf("Encode ran %d times, want %d (the held leaders)", singles, leaders)
	}
}

func TestBatcherEncodeAfterClose(t *testing.T) {
	enc := &stubEncoder{dim: 8}
	b := NewBatcher(enc, BatcherConfig{})
	b.Close()
	got := b.Encode("after close")
	want := enc.embed("after close")
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-Close Encode mismatch at %d", i)
		}
	}
}

// TestBatcherSingleRequestNotStranded: a lone request is served without
// waiting for company, however large MaxBatch is. (A batcher that held
// out for a fuller batch would block here forever.)
func TestBatcherSingleRequestNotStranded(t *testing.T) {
	enc := &stubEncoder{dim: 8}
	b := NewBatcher(enc, BatcherConfig{MaxBatch: 1024})
	defer b.Close()
	done := make(chan []float32, 1)
	go func() { done <- b.Encode("lonely") }()
	select {
	case got := <-done:
		if len(got) != 8 {
			t.Fatalf("Encode returned %d dims, want 8", len(got))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lone Encode still blocked after 10s: stranded waiting for company")
	}
	if st := b.Stats(); st.Batches != 1 || st.Coalesced != 0 {
		t.Errorf("Stats = %+v, want one batch of one", st)
	}
}

func TestBatcherConcurrentEncodeAndClose(t *testing.T) {
	enc := &stubEncoder{dim: 8}
	b := NewBatcher(enc, BatcherConfig{MaxBatch: 4})
	var sizes atomic.Int64
	b.OnBatch(func(size int) { sizes.Add(int64(size)) })
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := b.Encode("x"); len(got) != 8 {
				t.Errorf("Encode returned %d dims, want 8", len(got))
			}
		}()
	}
	b.Close()
	wg.Wait()
	// Every call is counted with the pass that served it, whichever side
	// of Close it fell on.
	if st := b.Stats(); st.Requests != 64 || st.Requests != sizes.Load() {
		t.Errorf("Stats = %+v with pass sizes summing to %d, want 64 requests = Σ sizes", st, sizes.Load())
	}
}

// TestBatchersStartNoGoroutine: building either batcher starts nothing,
// and a lone request through either is a mutex and a direct call: no
// goroutine, no allocation.
func TestBatchersStartNoGoroutine(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, embs := newSearchTestCache(t, 16, 50, 23)
	enc := &zeroAllocEncoder{stubEncoder{dim: 16}}
	before := runtime.NumGoroutine()
	b := NewBatcher(enc, BatcherConfig{})
	defer b.Close()
	sb := NewSearchBatcher(BatcherConfig{})
	defer sb.Close()
	emb := make([]float32, 0, enc.Dim())
	dst := make([]cache.Match, 0, 8)
	if n := testing.AllocsPerRun(100, func() { emb = b.EncodeInto("a lone encode", emb) }); n != 0 {
		t.Errorf("a lone EncodeInto allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { dst = sb.FindSimilar(c, embs[0], 5, 0.1, dst[:0]) }); n != 0 {
		t.Errorf("a lone FindSimilar allocates %v times, want 0", n)
	}
	if len(dst) == 0 || len(emb) != enc.Dim() {
		t.Errorf("lone requests returned %d matches, %d dims", len(dst), len(emb))
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before the batchers were built, %d after they served", before, after)
	}
}

// zeroAllocEncoder's pooled-buffer encode allocates nothing, so whatever
// a lone EncodeInto through the Batcher allocates is the batcher's own.
type zeroAllocEncoder struct{ stubEncoder }

func (e *zeroAllocEncoder) EncodeInto(text string, dst []float32) []float32 {
	dst = dst[:0]
	for i := 0; i < e.dim; i++ {
		dst = append(dst, float32(len(text)))
	}
	return dst
}

// TestBatcherPanickingPassDoesNotWedge: an encoder that panics once fails
// the caller whose goroutine ran that pass and nobody else. The requests
// parked behind the panicking pass, and the other members of a panicking
// batch, all return their own embeddings, and the batcher keeps serving.
func TestBatcherPanickingPassDoesNotWedge(t *testing.T) {
	for _, tc := range []struct {
		name    string
		panicOn string // the call that panics, once
		parked  int
	}{
		{"a pass of one with two parked behind it", "Encode", 2},
		{"a batch of three", "EncodeBatch", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := &panicOnceEncoder{stubEncoder: stubEncoder{dim: 8}, on: tc.panicOn}
			b := NewBatcher(enc, BatcherConfig{})
			defer b.Close()
			var panics atomic.Int64
			sizes := coalescedBurst(t, b, 1, tc.parked, func(i int) {
				defer func() {
					if r := recover(); r != nil {
						panics.Add(1)
					}
				}()
				text := fmt.Sprint("text ", i)
				if got, want := b.Encode(text), enc.embed(text); !reflect.DeepEqual(got, want) {
					t.Errorf("Encode(%q) returned another text's embedding", text)
				}
			})
			if want := []int{tc.parked}; !reflect.DeepEqual(sizes, want) {
				t.Errorf("pass sizes %v, want %v", sizes, want)
			}
			if panics.Load() != 1 {
				t.Errorf("%d callers saw the panic, want only the one that ran the pass", panics.Load())
			}
			if got, want := b.Encode("after"), enc.embed("after"); !reflect.DeepEqual(got, want) {
				t.Error("the Encode after the panicking pass returned a wrong embedding")
			}
			if d := b.QueueDepth(); d != 0 {
				t.Errorf("%d requests still parked", d)
			}
		})
	}
}

// panicOnceEncoder panics on the first call of the named method.
type panicOnceEncoder struct {
	stubEncoder
	on    string
	fired atomic.Bool
}

func (e *panicOnceEncoder) trip(method string) {
	if method == e.on && e.fired.CompareAndSwap(false, true) {
		panic("injected " + method + " failure")
	}
}

func (e *panicOnceEncoder) Encode(text string) []float32 {
	e.trip("Encode")
	return e.stubEncoder.Encode(text)
}

func (e *panicOnceEncoder) EncodeBatch(texts []string) *vecmath.Matrix {
	e.trip("EncodeBatch")
	return e.stubEncoder.EncodeBatch(texts)
}
