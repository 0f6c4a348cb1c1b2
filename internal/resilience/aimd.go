package resilience

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// LimiterConfig parameterises the AIMD adaptive concurrency limiter.
type LimiterConfig struct {
	// MinLimit and MaxLimit bound the concurrency limit; InitialLimit
	// is the starting point (defaults: 1, required, MinLimit).
	MinLimit     int
	MaxLimit     int
	InitialLimit int
	// MaxQueue bounds how many requests may wait for a slot; arrivals
	// past it are shed immediately. Defaults to MaxLimit.
	MaxQueue int
	// AIStep is the additive increase applied per limit's worth of
	// healthy responses (classic AIMD: +AIStep to the limit each time
	// roughly `limit` successes pass). Defaults to 1.
	AIStep float64
	// MDFactor is the multiplicative decrease applied on a failure or
	// congestion signal, in (0, 1). Defaults to 0.5.
	MDFactor float64
	// LatencyTolerance is the congestion gradient: when the latency
	// EWMA exceeds Tolerance × the observed baseline (the decayed
	// minimum), healthy responses stop growing the limit and trigger a
	// decrease — backpressure from a slowing upstream before it fails
	// outright. <= 1 disables the gradient. Defaults to 3.
	LatencyTolerance float64
	// DecreaseCooldown is the minimum spacing between multiplicative
	// decreases, so one burst of correlated failures (every in-flight
	// request timing out at once) counts as one congestion event, not
	// `limit` of them. Defaults to 100ms.
	DecreaseCooldown time.Duration
	// Clock is the decrease-cooldown time source. Nil defaults to the
	// wall clock; simulations inject a virtual one so the AIMD schedule
	// runs on virtual time.
	Clock sim.Clock
}

// Outcome classifies one guarded upstream call for Release.
type Outcome int

const (
	// OutcomeSuccess: the call completed healthily.
	OutcomeSuccess Outcome = iota
	// OutcomeFailure: the call failed or timed out — a congestion or
	// health signal; the limit decreases multiplicatively.
	OutcomeFailure
	// OutcomeCanceled: the caller went away (client disconnect). Says
	// nothing about upstream health; the slot is released with no
	// limit adjustment.
	OutcomeCanceled
)

// Limiter is an AIMD adaptive concurrency limiter with a bounded FIFO
// wait queue. Acquire admits a request when in-flight work is under the
// current limit, queues it (up to MaxQueue) when not, and sheds beyond
// that. Release reports the outcome and adapts the limit: additive
// increase on healthy latency, multiplicative decrease on failure or
// latency-gradient congestion.
type Limiter struct {
	cfg LimiterConfig

	mu       sync.Mutex
	limit    float64
	inflight int
	waiters  []*waiter
	// successCredit accumulates AIStep/limit per success; the limit
	// grows when it crosses 1 (≈ one step per limit's worth of
	// successes, the classic AIMD schedule).
	successCredit float64
	lastDecrease  time.Time
	// ewma tracks recent success latency; baseline is the decayed
	// minimum it is compared against for the congestion gradient.
	ewma     float64 // seconds
	baseline float64 // seconds

	acquired  atomic.Int64
	queued    atomic.Int64
	shed      atomic.Int64
	canceled  atomic.Int64
	decreases atomic.Int64
}

type waiter struct {
	ch       chan struct{}
	canceled bool
}

// NewLimiter builds the limiter. Panics if cfg.MaxLimit <= 0.
func NewLimiter(cfg LimiterConfig) *Limiter {
	if cfg.MaxLimit <= 0 {
		panic("resilience: LimiterConfig.MaxLimit must be positive")
	}
	if cfg.MinLimit <= 0 {
		cfg.MinLimit = 1
	}
	if cfg.MinLimit > cfg.MaxLimit {
		cfg.MinLimit = cfg.MaxLimit
	}
	if cfg.InitialLimit <= 0 {
		cfg.InitialLimit = cfg.MinLimit
	}
	if cfg.InitialLimit > cfg.MaxLimit {
		cfg.InitialLimit = cfg.MaxLimit
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = cfg.MaxLimit
	}
	if cfg.AIStep <= 0 {
		cfg.AIStep = 1
	}
	if cfg.MDFactor <= 0 || cfg.MDFactor >= 1 {
		cfg.MDFactor = 0.5
	}
	if cfg.LatencyTolerance == 0 {
		cfg.LatencyTolerance = 3
	}
	if cfg.DecreaseCooldown <= 0 {
		cfg.DecreaseCooldown = 100 * time.Millisecond
	}
	cfg.Clock = sim.Or(cfg.Clock)
	return &Limiter{cfg: cfg, limit: float64(cfg.InitialLimit)}
}

// Acquire claims an upstream slot. It returns (nil, nil) on success —
// the caller must Release exactly once — a *Rejection when the limiter
// and its queue are saturated, or ctx's error if the caller was
// canceled while queued.
func (l *Limiter) Acquire(ctx context.Context) (*Rejection, error) {
	l.mu.Lock()
	if l.inflight < int(l.limit) {
		l.inflight++
		l.mu.Unlock()
		l.acquired.Add(1)
		return nil, nil
	}
	if len(l.waiters) >= l.cfg.MaxQueue {
		// Estimate the drain time of the queue ahead as the backoff
		// hint: queue position × recent per-request latency / limit.
		est := time.Duration(l.ewma / l.limit * float64(len(l.waiters)+1) * float64(time.Second))
		l.mu.Unlock()
		if est <= 0 {
			est = 10 * time.Millisecond
		}
		l.shed.Add(1)
		return &Rejection{Reason: ReasonSaturated, RetryAfter: est}, nil
	}
	w := &waiter{ch: make(chan struct{})}
	l.waiters = append(l.waiters, w)
	l.mu.Unlock()
	l.queued.Add(1)
	select {
	case <-w.ch:
		l.acquired.Add(1)
		return nil, nil
	case <-ctx.Done():
		l.mu.Lock()
		select {
		case <-w.ch:
			// The handoff raced the cancellation and won: the slot is
			// ours, but the caller is gone — pass it on.
			l.mu.Unlock()
			l.Release(OutcomeCanceled, 0)
			l.acquired.Add(1)
		default:
			w.canceled = true
			l.mu.Unlock()
		}
		l.canceled.Add(1)
		return nil, ctx.Err()
	}
}

// TryAcquire claims a slot only if one is immediately free (no queueing).
func (l *Limiter) TryAcquire() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight < int(l.limit) {
		l.inflight++
		l.acquired.Add(1)
		return true
	}
	return false
}

// Release returns a slot and adapts the limit from the call's outcome.
// latency is the observed upstream wall time (successes feed the
// congestion gradient; ignored otherwise).
func (l *Limiter) Release(outcome Outcome, latency time.Duration) {
	l.mu.Lock()
	switch outcome {
	case OutcomeSuccess:
		sec := latency.Seconds()
		if l.ewma == 0 {
			l.ewma = sec
		} else {
			l.ewma = 0.8*l.ewma + 0.2*sec
		}
		if l.baseline == 0 || sec < l.baseline {
			l.baseline = sec
		} else {
			// Decay the baseline toward current behaviour so an old
			// lucky sample cannot pin the gradient forever.
			l.baseline += 0.01 * (l.ewma - l.baseline)
		}
		if l.cfg.LatencyTolerance > 1 && l.baseline > 0 && l.ewma > l.cfg.LatencyTolerance*l.baseline {
			l.decreaseLocked()
		} else {
			l.successCredit += l.cfg.AIStep / l.limit
			if l.successCredit >= 1 {
				l.limit += l.successCredit
				l.successCredit = 0
				if l.limit > float64(l.cfg.MaxLimit) {
					l.limit = float64(l.cfg.MaxLimit)
				}
			}
		}
	case OutcomeFailure:
		l.decreaseLocked()
	}
	l.releaseSlotLocked()
	l.mu.Unlock()
}

// decreaseLocked applies one multiplicative decrease, rate-limited by
// the cooldown so correlated failures collapse into one event.
func (l *Limiter) decreaseLocked() {
	now := l.cfg.Clock.Now()
	if now.Sub(l.lastDecrease) < l.cfg.DecreaseCooldown {
		return
	}
	l.lastDecrease = now
	l.limit *= l.cfg.MDFactor
	if l.limit < float64(l.cfg.MinLimit) {
		l.limit = float64(l.cfg.MinLimit)
	}
	l.successCredit = 0
	l.decreases.Add(1)
}

// releaseSlotLocked hands the freed slot to the first live waiter, or
// decrements inflight. A shrunken limit also sheds excess: slots are
// only handed off while inflight stays within it.
func (l *Limiter) releaseSlotLocked() {
	for len(l.waiters) > 0 {
		w := l.waiters[0]
		if !w.canceled && l.inflight > int(l.limit) {
			// The limit shrank below current inflight: the waiter must
			// not run yet. Leave it queued and just shed our token.
			break
		}
		l.waiters = popWaiter(l.waiters)
		if w.canceled {
			continue
		}
		// Hand the slot over without decrementing: the waiter inherits
		// this request's in-flight token.
		close(w.ch)
		return
	}
	l.inflight--
}

// popWaiter removes the head waiter in place.
func popWaiter(ws []*waiter) []*waiter {
	copy(ws, ws[1:])
	ws[len(ws)-1] = nil
	return ws[:len(ws)-1]
}

// Saturated reports whether in-flight work has reached the current
// limit — the cluster layer's signal to skip speculative hedges.
func (l *Limiter) Saturated() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight >= int(l.limit)
}

// Limit reports the current concurrency limit.
func (l *Limiter) Limit() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit
}

// Inflight reports currently admitted upstream calls.
func (l *Limiter) Inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// QueueDepth reports requests currently waiting for a slot.
func (l *Limiter) QueueDepth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, w := range l.waiters {
		if !w.canceled {
			n++
		}
	}
	return n
}

// LimiterStats snapshots the limiter.
type LimiterStats struct {
	Limit      float64 `json:"limit"`
	Inflight   int     `json:"inflight"`
	QueueDepth int     `json:"queue_depth"`
	// EWMAMicros is the recent success-latency EWMA the gradient
	// compares against BaselineMicros.
	EWMAMicros     int64 `json:"ewma_micros"`
	BaselineMicros int64 `json:"baseline_micros"`
	Acquired       int64 `json:"acquired"`
	Queued         int64 `json:"queued"`
	Shed           int64 `json:"shed"`
	Canceled       int64 `json:"canceled"`
	Decreases      int64 `json:"decreases"`
}

// Shed exposes the cumulative shed count for metric callbacks.
func (l *Limiter) ShedCount() int64 { return l.shed.Load() }

// Stats snapshots the limiter.
func (l *Limiter) Stats() LimiterStats {
	l.mu.Lock()
	s := LimiterStats{
		Limit:          l.limit,
		Inflight:       l.inflight,
		EWMAMicros:     int64(l.ewma * 1e6),
		BaselineMicros: int64(l.baseline * 1e6),
	}
	for _, w := range l.waiters {
		if !w.canceled {
			s.QueueDepth++
		}
	}
	l.mu.Unlock()
	s.Acquired = l.acquired.Load()
	s.Queued = l.queued.Load()
	s.Shed = l.shed.Load()
	s.Canceled = l.canceled.Load()
	s.Decreases = l.decreases.Load()
	return s
}
