package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Caller is the upstream call shape the guard wraps. It has core.LLM's
// one method, which the llmsim service and client implement, so this
// package depends on neither, and a Guard is itself a Caller.
type Caller interface {
	QueryContext(ctx context.Context, q string) (response string, took time.Duration, err error)
}

// Guard wraps an upstream Caller with the governor's miss-path
// protections, applied in shed-first order:
//
//  1. Circuit breaker: open → reject immediately with CacheOnly set,
//     so the serving layer answers from cache at a relaxed τ (or sheds
//     with Retry-After) instead of queueing into a dead upstream.
//  2. AIMD concurrency limiter: at the limit the request waits in the
//     bounded queue; past the queue it is shed with Retry-After.
//  3. Timeout: the call runs under Timeout (when set) in addition to
//     the request's own deadline; an expiry counts as a failure for
//     both the limiter and the breaker.
//
// Guard implements core.LLM, so it drops into core.Options.LLM directly.
type Guard struct {
	inner   Caller
	limiter *Limiter
	breaker *Breaker
	timeout time.Duration

	calls     atomic.Int64
	successes atomic.Int64
	failures  atomic.Int64
	timeouts  atomic.Int64
}

// NewGuard wraps inner with g's limiter and breaker (either may be
// disabled) and a per-call timeout (0 = none beyond the request's own
// deadline).
func NewGuard(inner Caller, g *Governor, timeout time.Duration) *Guard {
	u := &Guard{inner: inner, timeout: timeout}
	if g != nil {
		u.limiter = g.Limiter
		u.breaker = g.Breaker
	}
	return u
}

// QueryContext runs one guarded upstream call. Shed decisions surface
// as a *Rejection error (match with AsRejection); upstream failures and
// timeouts are wrapped and propagated.
func (u *Guard) QueryContext(ctx context.Context, q string) (string, time.Duration, error) {
	if u.breaker != nil {
		if rej := u.breaker.Allow(); rej != nil {
			return "", 0, rej
		}
	}
	if u.limiter != nil {
		rej, err := u.limiter.Acquire(ctx)
		if rej != nil {
			// The call never happened: release the breaker admission
			// without recording an outcome — saturation says nothing
			// about upstream health.
			if u.breaker != nil {
				u.breaker.Cancel()
			}
			return "", 0, rej
		}
		if err != nil {
			if u.breaker != nil {
				u.breaker.Cancel()
			}
			return "", 0, fmt.Errorf("resilience: canceled waiting for upstream slot: %w", err)
		}
	}
	cctx := ctx
	var cancel context.CancelFunc
	if u.timeout > 0 {
		cctx, cancel = context.WithTimeout(ctx, u.timeout)
	}
	u.calls.Add(1)
	start := time.Now()
	resp, took, err := u.inner.QueryContext(cctx, q)
	wall := time.Since(start)
	if cancel != nil {
		cancel()
	}

	timedOut := err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil
	clientGone := err != nil && ctx.Err() != nil && !timedOut
	outcome := OutcomeSuccess
	switch {
	case clientGone:
		// The caller disconnected mid-call: no verdict on upstream
		// health, no limit adjustment.
		outcome = OutcomeCanceled
	case err != nil:
		outcome = OutcomeFailure
	}
	if u.limiter != nil {
		u.limiter.Release(outcome, wall)
	}
	if u.breaker != nil {
		if outcome == OutcomeCanceled {
			u.breaker.Cancel()
		} else {
			u.breaker.Record(outcome == OutcomeSuccess)
		}
	}
	switch {
	case timedOut:
		u.timeouts.Add(1)
		return "", wall, fmt.Errorf("resilience: upstream timed out after %v: %w", u.timeout, err)
	case err != nil:
		u.failures.Add(1)
		return "", wall, fmt.Errorf("resilience: upstream: %w", err)
	}
	u.successes.Add(1)
	return resp, took, nil
}

// GuardStats snapshots the guard's call counters.
type GuardStats struct {
	Calls     int64 `json:"calls"`
	Successes int64 `json:"successes"`
	Failures  int64 `json:"failures"`
	Timeouts  int64 `json:"timeouts"`
}

// Stats snapshots the guard.
func (u *Guard) Stats() GuardStats {
	return GuardStats{
		Calls:     u.calls.Load(),
		Successes: u.successes.Load(),
		Failures:  u.failures.Load(),
		Timeouts:  u.timeouts.Load(),
	}
}

// AsRejection unwraps a shed decision from an error chain. ok is false
// for genuine upstream failures (which deserve a 502, not a 429/503).
func AsRejection(err error) (*Rejection, bool) {
	var rej *Rejection
	if errors.As(err, &rej) {
		return rej, true
	}
	return nil, false
}
