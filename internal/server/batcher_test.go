package server

import (
	"hash/fnv"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// dispatcher is what coalescedBurst needs of either batcher.
type dispatcher interface {
	OnBatch(fn func(size int))
	QueueDepth() int
}

// coalescedBurst makes coalescing deterministic under the one gather rule
// (a batch is whatever queued while the dispatcher was busy). It parks b's
// dispatcher inside its OnBatch hook, which runs on the dispatcher
// goroutine, behind one plug request (an extra send(0)), launches
// send(0..n-1) concurrently, waits until all n sit in the queue, and only
// then lets the dispatcher go: it finds the whole burst already arrived.
// n must fit the queue (4 × MaxBatch). Returns the sizes OnBatch saw, in
// dispatch order, the plug's 1 first.
func coalescedBurst(t *testing.T, b dispatcher, n int, send func(i int)) []int {
	t.Helper()
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var sizes []int
	b.OnBatch(func(size int) {
		mu.Lock()
		sizes = append(sizes, size)
		mu.Unlock()
		once.Do(func() { close(parked) })
		<-release
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); send(0) }()
	<-parked
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); send(i) }(i)
	}
	for deadline := time.Now().Add(10 * time.Second); b.QueueDepth() < n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("only %d of %d requests queued behind the parked dispatcher", b.QueueDepth(), n)
		}
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return sizes
}

// TestBatchCoreGathersWhatHasArrived pins the one gather rule and the
// Close protocol on the core itself, with run gated so the queue's
// content at each dispatch is known exactly.
func TestBatchCoreGathersWhatHasArrived(t *testing.T) {
	const maxBatch = 4
	entered, release := make(chan struct{}), make(chan struct{})
	var got [][]int // written by the dispatcher only, read after close returns
	core := newBatchCore(maxBatch, func(batch []int) {
		got = append(got, append([]int(nil), batch...))
		if len(got) == 1 {
			close(entered)
			<-release
		}
	})
	// A lone request is dispatched at once, as a batch of one.
	if !core.submit(0) {
		t.Fatal("submit refused on an open core")
	}
	<-entered
	// Six more arrive while the dispatcher is busy.
	for i := 1; i <= 6; i++ {
		if !core.submit(i) {
			t.Fatalf("submit(%d) refused on an open core", i)
		}
	}
	if d := core.queueDepth(); d != 6 {
		t.Fatalf("queueDepth = %d with the dispatcher blocked, want 6", d)
	}
	// Close lands while they are still queued.
	closed := make(chan struct{})
	go func() { core.close(); close(closed) }()
	for closing := false; !closing; time.Sleep(100 * time.Microsecond) {
		core.mu.RLock()
		closing = core.closing
		core.mu.RUnlock()
	}
	if core.submit(7) {
		t.Error("submit accepted after close began")
	}
	select {
	case <-closed:
		t.Fatal("close returned with accepted requests undelivered")
	default:
	}
	close(release)
	<-closed
	// The next batch is what had arrived, capped at MaxBatch, in arrival
	// order; the rest follow; nothing accepted is dropped by close.
	want := [][]int{{0}, {1, 2, 3, 4}, {5, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dispatched batches %v, want %v", got, want)
	}
	core.close() // redundant close just returns
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

// TestBatcherCoalescesConcurrentRequests: 20 Encodes that arrive while the
// dispatcher is busy are served in exactly ⌈20/8⌉ EncodeBatch calls, each
// with its own text's embedding.
func TestBatcherCoalescesConcurrentRequests(t *testing.T) {
	enc := &stubEncoder{dim: 16}
	b := NewBatcher(enc, BatcherConfig{MaxBatch: 8})
	defer b.Close()

	const n = 20
	texts := []string{"red", "green", "blue", "cyan"}
	sizes := coalescedBurst(t, b, n, func(i int) {
		got, want := b.Encode(texts[i%4]), enc.embed(texts[i%4])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Encode(%q) returned another text's embedding", texts[i%4])
		}
	})

	if want := []int{1, 8, 8, 4}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("batch sizes %v, want %v", sizes, want)
	}
	if st := b.Stats(); st.Requests != n+1 || st.Batches != 4 || st.Coalesced != n {
		t.Errorf("Stats = %+v, want %d requests in 4 batches, %d coalesced", st, n+1, n)
	}
	if calls, rows := enc.batchCalls.Load(), enc.batchSizes.Load(); calls != 3 || rows != n {
		t.Errorf("EncodeBatch ran %d times over %d texts, want 3 over %d", calls, rows, n)
	}
	if singles := enc.encodes.Load(); singles != 1 {
		t.Errorf("Encode ran %d times, want 1 (the plug)", singles)
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

// TestBatcherSingleRequestNotStranded: a lone request is dispatched
// without waiting for company, however large MaxBatch is. (A dispatcher
// that held out for a fuller batch would block here forever.)
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
}
