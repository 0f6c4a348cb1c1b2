package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// batchCore is the gather/dispatch machinery shared by the encode batcher
// and the search batcher: a request channel, a single dispatcher goroutine
// that gathers requests into batches, and a Close protocol that can never
// strand a request or race a sender onto a closed channel.
//
// Two gather modes, selected by cfg.MaxWait:
//
//   - MaxWait > 0: after the first request of a batch arrives, the
//     dispatcher lingers up to MaxWait (or until MaxBatch) collecting
//     company. Right when the batched operation is expensive relative to
//     the wait. (The encode batcher always runs in this mode, although a
//     measured encode is ~0.1ms against a 200µs window: see NewBatcher.)
//   - MaxWait <= 0: the dispatcher takes whatever is already queued and
//     runs immediately — coalescing costs zero added latency and batches
//     form only under genuine concurrency. Right when the batched
//     operation is itself microseconds (index search).
//
// The stranded-request hazard of timer-based flushers (flusher loses the
// wake race and a request waits past MaxWait for the next arrival) cannot
// occur here: the dispatcher blocks receiving on the request channel, so
// every request either starts a batch or joins one that is already
// gathering, and Close's channel close aborts any in-progress gather
// immediately.
//
// The run callback owns batch semantics: it delivers replies and advances
// the batches/batched counters (grouping rules differ per batcher). The
// core owns only the requests counter and the channel lifecycle.
type batchCore[R any] struct {
	cfg  BatcherConfig
	reqs chan R
	done chan struct{}
	run  func([]R)

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

// newBatchCore starts the dispatcher. cfg.MaxBatch must already be
// normalised (> 0); cfg.MaxWait <= 0 selects drain mode.
func newBatchCore[R any](cfg BatcherConfig, run func([]R)) *batchCore[R] {
	b := &batchCore[R]{
		cfg:  cfg,
		reqs: make(chan R, cfg.MaxBatch*4),
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

// dispatch is the batching loop: take one request, gather more according
// to the configured mode, hand the batch to run, recycle the buffer.
func (b *batchCore[R]) dispatch() {
	defer close(b.done)
	for first := range b.reqs {
		batch := append(b.batch[:0], first)
		if b.cfg.MaxWait > 0 {
			timer := time.NewTimer(b.cfg.MaxWait)
		gather:
			for len(batch) < b.cfg.MaxBatch {
				select {
				case req, ok := <-b.reqs:
					if !ok {
						break gather
					}
					batch = append(batch, req)
				case <-timer.C:
					break gather
				}
			}
			timer.Stop()
		} else {
		drain:
			for len(batch) < b.cfg.MaxBatch {
				select {
				case req, ok := <-b.reqs:
					if !ok {
						break drain
					}
					batch = append(batch, req)
				default:
					break drain
				}
			}
		}
		b.run(batch)
		// Scrub delivered requests (they hold reply channels and caller
		// buffers) so the reused gather buffer does not pin them.
		clear(batch)
		b.batch = batch
	}
}
