package server

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// combiner is leader combining, the batching rule shared by the encode
// batcher and the search batcher. There is no dispatcher: every pass runs
// on the goroutine of one of the requests it serves.
//
// One rule: a request that finds fewer passes in flight for its key than
// there are processors marks one more in flight and is served at once on
// its own goroutine, as a pass of one. A request that arrives while every
// processor could already be running a pass for that key parks. A
// finishing leader hands what has parked, in arrival order and up to
// maxBatch, to the first parked request, which leads the next pass, or
// clears its mark when nobody is parked. So a batch is exactly the work
// that overlapped a full set of passes, nobody waits for company or for a
// processor that is free, keys never wait on one another, and a key costs
// a map entry only while a pass on it is in flight.
//
// The width is GOMAXPROCS and not one because parking behind a single
// pass was measured to cost: a second encode waited out the first on an
// idle core (bench contextual, 2 clients: rtt_p50 599 → 658µs), and a hot
// tenant's searches, which gain nothing from sharing a pass at 768-d, ran
// on one core (hotspot: 613 against 1,038 served/s).
//
// K names what passes are counted against (the encoder; one cache's
// searches at one k and tau), R is a request and T its result.
type combiner[K comparable, R, T any] struct {
	maxBatch int
	width    int // passes a key may have in flight before a request parks
	// one serves a request alone; many serves a batch of two or more by
	// setting each member's out. Both run on the leader's goroutine.
	one  func(R) T
	many func([]*parked[R, T])

	mu     sync.Mutex
	closed bool
	// lanes holds the keys with a pass in flight.
	lanes                        map[K]lane[R, T]
	waiting                      int   // requests parked now, over all keys
	requests, batches, coalesced int64 // counted when a pass is formed
	inflight                     sync.WaitGroup
	onBatch                      atomic.Pointer[func(size int)]
	pool                         sync.Pool // *parked[R, T]
}

// lane is one key's passes in flight and the requests parked behind them.
type lane[R, T any] struct {
	running int
	behind  []*parked[R, T]
}

// parked is one request waiting behind a pass in flight. Its owner blocks
// on wake; whoever wakes it does not touch it again.
type parked[R, T any] struct {
	req   R
	out   T
	batch []*parked[R, T] // set with wakeLead: the pass to lead, this request first
	wake  chan wakeup
}

type wakeup int

const (
	wakeServed wakeup = iota // a leader served the request: out is set
	wakeLead                 // first of the next pass: serve batch
	wakeAlone                // the pass holding the request panicked: serve it alone
)

func (c *combiner[K, R, T]) init(maxBatch int, one func(R) T, many func([]*parked[R, T])) {
	if maxBatch <= 0 {
		maxBatch = 32
	}
	c.maxBatch, c.width, c.one, c.many = maxBatch, runtime.GOMAXPROCS(0), one, many
	c.lanes = make(map[K]lane[R, T])
}

// do serves req, alone or as a member of a batch, and returns its result.
func (c *combiner[K, R, T]) do(key K, req R) T {
	c.mu.Lock()
	ln := c.lanes[key]
	if !c.closed && ln.running >= c.width {
		return c.park(key, ln, req)
	}
	c.requests++
	c.batches++
	if !c.closed {
		ln.running++
		c.lanes[key] = ln
		c.inflight.Add(1)
		defer c.handOff(key)
	}
	c.mu.Unlock()
	c.fireOnBatch(1)
	return c.one(req)
}

// park queues req behind key's passes in flight (c.mu held, released
// here) and blocks until a leader has served it or hands it a pass.
func (c *combiner[K, R, T]) park(key K, ln lane[R, T], req R) T {
	p, _ := c.pool.Get().(*parked[R, T])
	if p == nil {
		p = &parked[R, T]{wake: make(chan wakeup, 1)}
	}
	p.req = req
	ln.behind = append(ln.behind, p)
	c.lanes[key] = ln
	c.waiting++
	c.mu.Unlock()

	var out T
	switch <-p.wake {
	case wakeServed:
		out = p.out
	case wakeLead:
		out = c.lead(key, p.batch)
	case wakeAlone:
		out = c.one(p.req)
	}
	clear(p.batch) // don't pin the members, their buffers or their caches
	*p = parked[R, T]{batch: p.batch[:0], wake: p.wake}
	c.pool.Put(p)
	return out
}

// lead runs one pass on its first member's goroutine and wakes the rest.
// The deferred half also runs when the pass panics (net/http recovers a
// handler's panic, so the process would carry on): the other members are
// sent to serve themselves and the key is handed on, so one bad pass
// fails one caller, not every request behind it.
func (c *combiner[K, R, T]) lead(key K, batch []*parked[R, T]) T {
	verdict := wakeAlone
	defer func() {
		for _, p := range batch[1:] {
			p.wake <- verdict
		}
		c.handOff(key)
	}()
	c.fireOnBatch(len(batch))
	if len(batch) == 1 {
		return c.one(batch[0].req)
	}
	c.many(batch)
	verdict = wakeServed
	return batch[0].out
}

// handOff ends the caller's pass on key: the first request parked is
// woken to lead the next pass in its place, or the pass's mark is cleared.
func (c *combiner[K, R, T]) handOff(key K) {
	c.mu.Lock()
	ln := c.lanes[key]
	behind := ln.behind
	if len(behind) == 0 {
		if ln.running--; ln.running == 0 {
			delete(c.lanes, key)
		} else {
			c.lanes[key] = ln
		}
		c.mu.Unlock()
		c.inflight.Done()
		return
	}
	n := min(len(behind), c.maxBatch)
	next := behind[0]
	next.batch = append(next.batch[:0], behind[:n]...)
	rest := copy(behind, behind[n:])
	clear(behind[rest:])
	ln.behind = behind[:rest]
	c.lanes[key] = ln
	c.waiting -= n
	c.requests += int64(n)
	c.batches++
	if n > 1 {
		c.coalesced += int64(n)
	}
	c.mu.Unlock()
	next.wake <- wakeLead
}

// close stops parking (later requests are served alone, at once) and
// returns when every pass in flight, and every request parked behind one,
// has been served.
func (c *combiner[K, R, T]) close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.inflight.Wait()
}

func (c *combiner[K, R, T]) queueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waiting
}

func (c *combiner[K, R, T]) setOnBatch(fn func(size int)) { c.onBatch.Store(&fn) }

func (c *combiner[K, R, T]) fireOnBatch(size int) {
	if fn := c.onBatch.Load(); fn != nil {
		(*fn)(size)
	}
}

func (c *combiner[K, R, T]) stats() BatcherStats {
	c.mu.Lock()
	s := BatcherStats{Requests: c.requests, Batches: c.batches, Coalesced: c.coalesced}
	c.mu.Unlock()
	if s.Batches > 0 {
		s.MeanBatch = float64(s.Requests) / float64(s.Batches)
	}
	return s
}
