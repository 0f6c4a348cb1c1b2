package server

import (
	"sync"
	"sync/atomic"
)

// batchCore is the gather/dispatch machinery shared by the encode batcher
// and the search batcher: a request channel, a single dispatcher goroutine
// that gathers requests into batches, and a Close protocol that can never
// strand a request or race a sender onto a closed channel.
//
// One gather rule: the dispatcher takes the first request, appends
// whatever has already queued behind it (up to MaxBatch) and runs. It
// never waits for company, so batching adds no latency of its own, and
// batches form exactly when requests arrive while the dispatcher is busy
// with the previous batch.
//
// A request can never be stranded: the dispatcher blocks receiving on the
// request channel, so every request either starts a batch or joins the
// one being assembled, and there is no timer whose wake-up a request
// could lose a race against.
//
// The run callback owns batch semantics: it delivers replies and advances
// the batches/batched counters (grouping rules differ per batcher). The
// core owns only the requests counter and the channel lifecycle.
type batchCore[R any] struct {
	maxBatch int
	reqs     chan R
	done     chan struct{}
	run      func([]R)

	// mu/senders fence close against in-flight submit sends, so reqs is
	// only closed once no sender can touch it again.
	mu      sync.RWMutex
	closing bool
	senders sync.WaitGroup

	// stats — requests is owned by submit; batches/batched by run callbacks.
	requests atomic.Int64
	batches  atomic.Int64
	batched  atomic.Int64 // requests that shared a batch of size ≥ 2

	// onBatch, when set, observes each dispatched batch's size (the
	// metrics hook). Atomic so it can be installed after the dispatcher
	// is already running.
	onBatch atomic.Pointer[func(size int)]

	// batch is the dispatcher-owned gather buffer, reused across batches.
	batch []R
}

// newBatchCore starts the dispatcher. maxBatch must already be
// normalised (> 0).
func newBatchCore[R any](maxBatch int, run func([]R)) *batchCore[R] {
	b := &batchCore[R]{
		maxBatch: maxBatch,
		// Room for a few batches to queue while one runs, so senders
		// rarely block on the dispatcher.
		reqs: make(chan R, maxBatch*4),
		done: make(chan struct{}),
		run:  run,
	}
	go b.dispatch()
	return b
}

// submit enqueues r for the dispatcher, returning false when the core is
// closing (or closed) and the caller must take its direct path instead.
// On true, r has been handed to the dispatcher and its reply will arrive:
// close drains every accepted request before stopping.
func (b *batchCore[R]) submit(r R) bool {
	b.requests.Add(1)
	b.mu.RLock()
	if b.closing {
		b.mu.RUnlock()
		return false
	}
	b.senders.Add(1)
	b.mu.RUnlock()
	b.reqs <- r
	b.senders.Done()
	return true
}

// close stops the dispatcher after draining in-flight requests. Redundant
// calls just wait for the first to finish.
func (b *batchCore[R]) close() {
	b.mu.Lock()
	if b.closing {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closing = true
	b.mu.Unlock()
	b.senders.Wait()
	close(b.reqs)
	<-b.done
}

func (b *batchCore[R]) queueDepth() int { return len(b.reqs) }

func (b *batchCore[R]) setOnBatch(fn func(size int)) { b.onBatch.Store(&fn) }

func (b *batchCore[R]) fireOnBatch(size int) {
	if fn := b.onBatch.Load(); fn != nil {
		(*fn)(size)
	}
}

func (b *batchCore[R]) stats() BatcherStats {
	s := BatcherStats{
		Requests:  b.requests.Load(),
		Batches:   b.batches.Load(),
		Coalesced: b.batched.Load(),
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(s.Requests) / float64(s.Batches)
	}
	return s
}

// dispatch is the batching loop: take one request, append whatever has
// already arrived, hand the batch to run, recycle the buffer.
func (b *batchCore[R]) dispatch() {
	defer close(b.done)
	for first := range b.reqs {
		batch := append(b.batch[:0], first)
	gather:
		for len(batch) < b.maxBatch {
			select {
			case req, ok := <-b.reqs:
				if !ok {
					break gather
				}
				batch = append(batch, req)
			default:
				break gather
			}
		}
		b.run(batch)
		// Scrub delivered requests (they hold reply channels and caller
		// buffers) so the reused gather buffer does not pin them.
		clear(batch)
		b.batch = batch
	}
}

// replyPool recycles the one-shot reply channels a batcher's callers wait
// on, so a warmed request allocates nothing for its rendezvous. A full
// pool drops the channel; an empty one makes a new one.
type replyPool[T any] chan chan T

func (p replyPool[T]) get() chan T {
	select {
	case ch := <-p:
		return ch
	default:
		return make(chan T, 1)
	}
}

func (p replyPool[T]) put(ch chan T) {
	select {
	case p <- ch:
	default:
	}
}
