package resilience

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

func testLimiter(clk *sim.VirtualClock, min, max, initial, queue int) *Limiter {
	return NewLimiter(LimiterConfig{
		MinLimit:         min,
		MaxLimit:         max,
		InitialLimit:     initial,
		MaxQueue:         queue,
		AIStep:           1,
		MDFactor:         0.5,
		LatencyTolerance: 3,
		DecreaseCooldown: 100 * time.Millisecond,
		Clock:            clk,
	})
}

// TestLimiterAdditiveIncrease: a limit's worth of healthy responses
// grows the limit by one step, up to MaxLimit.
func TestLimiterAdditiveIncrease(t *testing.T) {
	clk := sim.NewVirtual()
	l := testLimiter(clk, 1, 8, 4, 4)

	if got := l.Limit(); got != 4 {
		t.Fatalf("initial limit = %v, want 4", got)
	}
	// 4 successes at steady latency → +1.
	for i := 0; i < 4; i++ {
		if !l.TryAcquire() {
			t.Fatalf("acquire %d failed under limit", i)
		}
		l.Release(OutcomeSuccess, 10*time.Millisecond)
	}
	if got := l.Limit(); got < 5 {
		t.Fatalf("limit after one window of successes = %v, want >= 5", got)
	}
	// Keep going: the limit saturates at MaxLimit and stays there.
	for i := 0; i < 100; i++ {
		if !l.TryAcquire() {
			t.Fatalf("acquire failed with limit %v, inflight %d", l.Limit(), l.Inflight())
		}
		l.Release(OutcomeSuccess, 10*time.Millisecond)
	}
	if got := l.Limit(); got != 8 {
		t.Fatalf("limit after sustained success = %v, want MaxLimit (8)", got)
	}
}

// TestLimiterMultiplicativeDecrease: a failure halves the limit; a burst
// of correlated failures inside the cooldown counts once.
func TestLimiterMultiplicativeDecrease(t *testing.T) {
	clk := sim.NewVirtual()
	l := testLimiter(clk, 1, 16, 8, 4)

	for i := 0; i < 4; i++ {
		if !l.TryAcquire() {
			t.Fatalf("acquire %d failed", i)
		}
	}
	// Four in-flight requests all fail at once (an upstream brown-out):
	// one congestion event, not four.
	for i := 0; i < 4; i++ {
		l.Release(OutcomeFailure, 0)
	}
	if got := l.Limit(); got != 4 {
		t.Fatalf("limit after correlated failure burst = %v, want 8×0.5 = 4", got)
	}
	s := l.Stats()
	if s.Decreases != 1 {
		t.Fatalf("decreases = %d, want 1 (cooldown collapses the burst)", s.Decreases)
	}

	// After the cooldown, another failure halves again, flooring at Min.
	clk.Advance(200 * time.Millisecond)
	l.TryAcquire()
	l.Release(OutcomeFailure, 0)
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit = %v, want 2", got)
	}
	for i := 0; i < 10; i++ {
		clk.Advance(200 * time.Millisecond)
		l.TryAcquire()
		l.Release(OutcomeFailure, 0)
	}
	if got := l.Limit(); got != 1 {
		t.Fatalf("limit = %v, want MinLimit (1)", got)
	}
}

// TestLimiterLatencyGradient: healthy responses whose latency blows past
// Tolerance × baseline trigger a decrease without any failure.
func TestLimiterLatencyGradient(t *testing.T) {
	clk := sim.NewVirtual()
	l := testLimiter(clk, 1, 16, 8, 4)

	// Establish a ~1ms baseline.
	for i := 0; i < 20; i++ {
		l.TryAcquire()
		l.Release(OutcomeSuccess, time.Millisecond)
	}
	before := l.Limit()
	// Upstream slows 50×: EWMA climbs past 3× baseline within a few
	// responses and the limit backs off despite every call "succeeding".
	for i := 0; i < 20; i++ {
		clk.Advance(200 * time.Millisecond)
		l.TryAcquire()
		l.Release(OutcomeSuccess, 50*time.Millisecond)
	}
	if got := l.Limit(); got >= before {
		t.Fatalf("limit %v did not decrease under latency gradient (was %v)", got, before)
	}
	if l.Stats().Decreases == 0 {
		t.Fatalf("no decreases recorded under gradient congestion")
	}
}

// TestLimiterQueueAndShed: at the limit requests queue up to MaxQueue,
// then shed with a Retry-After hint.
func TestLimiterQueueAndShed(t *testing.T) {
	clk := sim.NewVirtual()
	l := testLimiter(clk, 1, 2, 2, 2)

	if rej, err := l.Acquire(context.Background()); rej != nil || err != nil {
		t.Fatalf("acquire 1: %v %v", rej, err)
	}
	if rej, err := l.Acquire(context.Background()); rej != nil || err != nil {
		t.Fatalf("acquire 2: %v %v", rej, err)
	}

	// Two more queue behind the limit.
	type res struct {
		rej *Rejection
		err error
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rej, err := l.Acquire(context.Background())
			results <- res{rej, err}
		}()
	}
	waitFor(t, func() bool { return l.QueueDepth() == 2 }, "queue to fill")

	// Fifth arrival: queue full → shed immediately.
	rej, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("saturated acquire errored: %v", err)
	}
	if rej == nil {
		t.Fatalf("saturated acquire admitted")
	}
	if rej.Reason != ReasonSaturated {
		t.Fatalf("reason = %q, want %q", rej.Reason, ReasonSaturated)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("retry-after hint missing: %v", rej.RetryAfter)
	}
	if !l.Saturated() {
		t.Fatalf("Saturated() = false at the limit")
	}

	// Releases hand slots to the queued waiters FIFO.
	l.Release(OutcomeSuccess, time.Millisecond)
	l.Release(OutcomeSuccess, time.Millisecond)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.rej != nil || r.err != nil {
			t.Fatalf("queued waiter %d: %v %v", i, r.rej, r.err)
		}
	}
	l.Release(OutcomeSuccess, time.Millisecond)
	l.Release(OutcomeSuccess, time.Millisecond)
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight = %d after all releases", got)
	}
	if got := l.Stats().Shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

// TestLimiterAcquireCancellation: a queued waiter whose context dies
// leaves the queue cleanly and does not leak its (never-granted) slot.
func TestLimiterAcquireCancellation(t *testing.T) {
	clk := sim.NewVirtual()
	l := testLimiter(clk, 1, 1, 1, 4)

	if rej, err := l.Acquire(context.Background()); rej != nil || err != nil {
		t.Fatalf("acquire: %v %v", rej, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := l.Acquire(ctx)
		errc <- err
	}()
	waitFor(t, func() bool { return l.QueueDepth() == 1 }, "waiter to queue")
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("canceled acquire returned %v, want context.Canceled", err)
	}
	// The canceled waiter must not absorb the released slot.
	l.Release(OutcomeSuccess, time.Millisecond)
	if !l.TryAcquire() {
		t.Fatalf("slot leaked to canceled waiter")
	}
	l.Release(OutcomeSuccess, time.Millisecond)
	if got := l.Stats().Canceled; got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
}

// TestLimiterShrinkBelowInflight: when a decrease drops the limit under
// current inflight, freed slots are retired instead of handed to waiters
// until inflight fits the new limit again.
func TestLimiterShrinkBelowInflight(t *testing.T) {
	clk := sim.NewVirtual()
	l := testLimiter(clk, 1, 8, 8, 8)
	for i := 0; i < 8; i++ {
		if !l.TryAcquire() {
			t.Fatalf("acquire %d failed", i)
		}
	}
	acquired := make(chan struct{})
	go func() {
		l.Acquire(context.Background())
		close(acquired)
	}()
	waitFor(t, func() bool { return l.QueueDepth() == 1 }, "waiter to queue")

	// Failure halves the limit to 4: inflight (8) is now over it.
	l.Release(OutcomeFailure, 0)
	select {
	case <-acquired:
		t.Fatalf("waiter granted a slot while inflight exceeds the shrunken limit")
	case <-time.After(20 * time.Millisecond):
	}
	// Draining to 3 in-flight lets the waiter in (3 < 4).
	for i := 0; i < 4; i++ {
		clk.Advance(time.Second)
		l.Release(OutcomeSuccess, time.Millisecond)
	}
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatalf("waiter never granted after drain below the new limit")
	}
}

// TestLimiterConcurrentChurn (run with -race): random outcomes from many
// goroutines; afterwards the limit is in bounds and nothing leaked.
func TestLimiterConcurrentChurn(t *testing.T) {
	l := NewLimiter(LimiterConfig{
		MinLimit: 2, MaxLimit: 32, InitialLimit: 8, MaxQueue: 16,
		DecreaseCooldown: time.Microsecond,
	})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				ctx := context.Background()
				if rng.Intn(8) == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
					defer cancel()
				}
				rej, err := l.Acquire(ctx)
				if rej != nil || err != nil {
					continue
				}
				out := OutcomeSuccess
				switch rng.Intn(10) {
				case 0:
					out = OutcomeFailure
				case 1:
					out = OutcomeCanceled
				}
				l.Release(out, time.Duration(rng.Intn(1000))*time.Microsecond)
			}
		}(int64(w))
	}
	wg.Wait()
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight = %d after churn, want 0", got)
	}
	if got := l.QueueDepth(); got != 0 {
		t.Fatalf("queue depth = %d after churn, want 0", got)
	}
	if lim := l.Limit(); lim < 2 || lim > 32 {
		t.Fatalf("limit %v escaped [2, 32]", lim)
	}
}

// waitFor polls cond until true or the deadline trips the test.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
