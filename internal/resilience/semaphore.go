package resilience

import (
	"context"
	"sync"
)

// Weighted is a weighted semaphore with FIFO fairness, guarding
// expensive non-request work (re-embedding a tenant, running an FL
// round) so background maintenance yields to foreground traffic instead
// of competing with it for CPU under pressure. It is the in-repo analogue of x/sync/semaphore.Weighted
// (which the module does not vendor).
//
// Its method set matches the structural gate interfaces declared by the
// consumers (cache.Gate, flserve's maintenance gate), so one semaphore
// instance can guard all background subsystems at once.
type Weighted struct {
	size int64

	mu      sync.Mutex
	cur     int64
	waiters []*semWaiter
}

type semWaiter struct {
	n        int64
	ch       chan struct{}
	canceled bool
}

// NewWeighted builds a semaphore with the given capacity.
func NewWeighted(size int64) *Weighted {
	if size <= 0 {
		panic("resilience: semaphore capacity must be positive")
	}
	return &Weighted{size: size}
}

// Acquire blocks until n units are available or ctx is done. Requests
// heavier than the capacity are clamped to it (they serialise against
// everything) rather than deadlocking.
func (w *Weighted) Acquire(ctx context.Context, n int64) error {
	if n > w.size {
		n = w.size
	}
	if n <= 0 {
		n = 1
	}
	w.mu.Lock()
	if w.cur+n <= w.size && len(w.waiters) == 0 {
		w.cur += n
		w.mu.Unlock()
		return nil
	}
	sw := &semWaiter{n: n, ch: make(chan struct{})}
	w.waiters = append(w.waiters, sw)
	w.mu.Unlock()
	select {
	case <-sw.ch:
		return nil
	case <-ctx.Done():
		w.mu.Lock()
		select {
		case <-sw.ch:
			// Granted in the race window: give the units back.
			w.cur -= sw.n
			w.notifyLocked()
			w.mu.Unlock()
		default:
			sw.canceled = true
			w.mu.Unlock()
		}
		return ctx.Err()
	}
}

// TryAcquire claims n units only if they are free right now (and no
// earlier waiter is queued — FIFO order is never jumped).
func (w *Weighted) TryAcquire(n int64) bool {
	if n > w.size {
		n = w.size
	}
	if n <= 0 {
		n = 1
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur+n <= w.size && len(w.waiters) == 0 {
		w.cur += n
		return true
	}
	return false
}

// Release returns n units (clamped like Acquire).
func (w *Weighted) Release(n int64) {
	if n > w.size {
		n = w.size
	}
	if n <= 0 {
		n = 1
	}
	w.mu.Lock()
	w.cur -= n
	if w.cur < 0 {
		w.cur = 0
	}
	w.notifyLocked()
	w.mu.Unlock()
}

// notifyLocked grants queued waiters in FIFO order while capacity lasts.
func (w *Weighted) notifyLocked() {
	for len(w.waiters) > 0 {
		sw := w.waiters[0]
		if sw.canceled {
			w.waiters = popSemWaiter(w.waiters)
			continue
		}
		if w.cur+sw.n > w.size {
			return
		}
		w.cur += sw.n
		w.waiters = popSemWaiter(w.waiters)
		close(sw.ch)
	}
}

func popSemWaiter(ws []*semWaiter) []*semWaiter {
	copy(ws, ws[1:])
	ws[len(ws)-1] = nil
	return ws[:len(ws)-1]
}

// WeightedInfo snapshots the semaphore.
type WeightedInfo struct {
	Capacity int64 `json:"capacity"`
	Held     int64 `json:"held"`
	Waiters  int   `json:"waiters"`
}

// Info snapshots the semaphore.
func (w *Weighted) Info() WeightedInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	info := WeightedInfo{Capacity: w.size, Held: w.cur}
	for _, sw := range w.waiters {
		if !sw.canceled {
			info.Waiters++
		}
	}
	return info
}
