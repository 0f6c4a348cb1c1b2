package resilience

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

func testBreaker(clk *sim.VirtualClock) *Breaker {
	return NewBreaker(BreakerConfig{
		Window:         10,
		MinSamples:     4,
		FailureRatio:   0.5,
		OpenFor:        time.Second,
		HalfOpenProbes: 2,
		Clock:          clk,
	})
}

// mustAllow asserts the breaker admits a call.
func mustAllow(t *testing.T, b *Breaker, msg string) {
	t.Helper()
	if rej := b.Allow(); rej != nil {
		t.Fatalf("%s: unexpectedly rejected: %v", msg, rej)
	}
}

// mustReject asserts the breaker sheds a call with CacheOnly set.
func mustReject(t *testing.T, b *Breaker, msg string) *Rejection {
	t.Helper()
	rej := b.Allow()
	if rej == nil {
		t.Fatalf("%s: unexpectedly admitted", msg)
	}
	if !rej.CacheOnly {
		t.Fatalf("%s: open-breaker rejection should be CacheOnly", msg)
	}
	if rej.Reason != ReasonUpstreamOpen {
		t.Fatalf("%s: reason = %q, want %q", msg, rej.Reason, ReasonUpstreamOpen)
	}
	return rej
}

// TestBreakerTripsOnFailureRatio walks the canonical lifecycle: closed
// under mixed traffic, tripped by a failure burst, open while cooling
// off, half-open probes, closed again on probe success.
func TestBreakerTripsOnFailureRatio(t *testing.T) {
	clk := sim.NewVirtual()
	b := testBreaker(clk)

	// Healthy traffic never trips.
	for i := 0; i < 20; i++ {
		mustAllow(t, b, "healthy")
		b.Record(true)
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after healthy traffic = %s", StateName(got))
	}

	// Three failures out of the last window (3/10 < 0.5 after the 20
	// successes rolled through... the window holds the last 10): push
	// failures until the windowed ratio crosses 0.5.
	for i := 0; i < 5; i++ {
		mustAllow(t, b, "failing")
		b.Record(false)
	}
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after failure burst = %s, want open", StateName(got))
	}
	if b.OpenCount() != 1 {
		t.Fatalf("opens = %d, want 1", b.OpenCount())
	}

	// Open: rejects with the remaining cool-off as Retry-After.
	rej := mustReject(t, b, "open")
	if rej.RetryAfter <= 0 || rej.RetryAfter > time.Second {
		t.Fatalf("open retry-after = %v", rej.RetryAfter)
	}
	clk.Advance(400 * time.Millisecond)
	if rej := mustReject(t, b, "still open"); rej.RetryAfter > 600*time.Millisecond {
		t.Fatalf("retry-after should shrink with the clock, got %v", rej.RetryAfter)
	}

	// Cool-off elapses: exactly HalfOpenProbes trial calls pass, the
	// rest are shed.
	clk.Advance(700 * time.Millisecond)
	mustAllow(t, b, "probe 1")
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after cool-off = %s, want half_open", StateName(got))
	}
	mustAllow(t, b, "probe 2")
	mustReject(t, b, "probe budget spent")

	// Both probes succeed → closed, with a fresh window.
	b.Record(true)
	b.Record(true)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after successful probes = %s, want closed", StateName(got))
	}
	s := b.Stats()
	if s.WindowSamples != 0 || s.WindowFailures != 0 {
		t.Fatalf("window not reset on close: %+v", s)
	}
}

// TestBreakerHalfOpenFailureReopens: any probe failure slams the breaker
// back open and restarts the cool-off.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := sim.NewVirtual()
	b := testBreaker(clk)
	for i := 0; i < 4; i++ {
		mustAllow(t, b, "failing")
		b.Record(false)
	}
	if b.State() != StateOpen {
		t.Fatalf("precondition: breaker should be open")
	}
	clk.Advance(time.Second + time.Millisecond)
	mustAllow(t, b, "probe")
	b.Record(false)
	if b.State() != StateOpen {
		t.Fatalf("failed probe should reopen, state = %s", StateName(b.State()))
	}
	// The cool-off restarted at the probe failure, so it rejects again.
	mustReject(t, b, "reopened")
	if b.OpenCount() != 2 {
		t.Fatalf("opens = %d, want 2", b.OpenCount())
	}
}

// TestBreakerCancelReturnsProbeSlot: an abandoned probe (client gone,
// limiter shed) must not wedge half-open.
func TestBreakerCancelReturnsProbeSlot(t *testing.T) {
	clk := sim.NewVirtual()
	b := testBreaker(clk)
	for i := 0; i < 4; i++ {
		mustAllow(t, b, "failing")
		b.Record(false)
	}
	clk.Advance(time.Second + time.Millisecond)
	mustAllow(t, b, "probe 1")
	mustAllow(t, b, "probe 2")
	mustReject(t, b, "budget spent")
	b.Cancel() // probe 1 abandoned
	mustAllow(t, b, "slot returned")
	b.Record(true)
	b.Record(true)
	if b.State() != StateClosed {
		t.Fatalf("state = %s, want closed", StateName(b.State()))
	}
}

// TestBreakerMinSamples: the ratio cannot trip before MinSamples
// outcomes are in the window (one early failure is not an outage).
func TestBreakerMinSamples(t *testing.T) {
	clk := sim.NewVirtual()
	b := testBreaker(clk) // MinSamples: 4
	for i := 0; i < 3; i++ {
		mustAllow(t, b, "early failure")
		b.Record(false)
	}
	if b.State() != StateClosed {
		t.Fatalf("breaker tripped on %d samples, MinSamples is 4", 3)
	}
	mustAllow(t, b, "4th failure")
	b.Record(false)
	if b.State() != StateOpen {
		t.Fatalf("breaker should trip at MinSamples with 100%% failures")
	}
}

// TestBreakerPropertyScriptedSequences drives the state machine with
// randomized scripted outcome sequences and clock jumps, asserting the
// transition invariants a breaker must never violate, and cross-checking
// the closed-state trip decision against a straightforward model of the
// sliding window.
func TestBreakerPropertyScriptedSequences(t *testing.T) {
	const (
		window     = 8
		minSamples = 3
		ratio      = 0.5
		openFor    = time.Second
		probes     = 2
	)
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := sim.NewVirtual()
		b := NewBreaker(BreakerConfig{
			Window: window, MinSamples: minSamples, FailureRatio: ratio,
			OpenFor: openFor, HalfOpenProbes: probes, Clock: clk,
		})
		// Model of the closed-state window.
		var model []bool
		admitted := 0 // admissions not yet recorded
		prevState := StateClosed
		for step := 0; step < 400; step++ {
			if rng.Intn(4) == 0 {
				clk.Advance(time.Duration(rng.Intn(700)) * time.Millisecond)
			}
			state := b.State()
			// Invariant: legal transitions only.
			legal := map[[2]int]bool{
				{StateClosed, StateClosed}: true, {StateClosed, StateOpen}: true,
				{StateOpen, StateOpen}: true, {StateOpen, StateHalfOpen}: true,
				{StateHalfOpen, StateHalfOpen}: true, {StateHalfOpen, StateOpen}: true,
				{StateHalfOpen, StateClosed}: true,
			}
			if !legal[[2]int{prevState, state}] {
				t.Fatalf("seed %d step %d: illegal transition %s → %s",
					seed, step, StateName(prevState), StateName(state))
			}
			prevState = state

			rej := b.Allow()
			switch state {
			case StateClosed:
				if rej != nil {
					t.Fatalf("seed %d step %d: closed breaker rejected", seed, step)
				}
			case StateOpen:
				if rej == nil && b.State() != StateHalfOpen {
					t.Fatalf("seed %d step %d: open breaker admitted without transitioning", seed, step)
				}
			}
			if rej != nil {
				continue
			}
			admitted++
			if admitted > probes && b.State() == StateHalfOpen {
				t.Fatalf("seed %d step %d: more than %d concurrent half-open probes", seed, step, probes)
			}
			ok := rng.Intn(3) != 0 // 1/3 failures
			wasClosed := b.State() == StateClosed
			if wasClosed {
				model = append(model, !ok)
				if len(model) > window {
					model = model[1:]
				}
			}
			b.Record(ok)
			admitted--
			if wasClosed {
				fails := 0
				for _, f := range model {
					if f {
						fails++
					}
				}
				shouldTrip := len(model) >= minSamples && float64(fails) >= ratio*float64(len(model))
				tripped := b.State() == StateOpen
				if shouldTrip != tripped {
					t.Fatalf("seed %d step %d: model trip=%v breaker=%v (window %v)",
						seed, step, shouldTrip, tripped, model)
				}
				if tripped {
					model = model[:0]
					prevState = StateOpen
				}
			} else if b.State() == StateClosed {
				model = model[:0] // half-open just closed: fresh window
				prevState = StateClosed
			} else if b.State() == StateOpen {
				prevState = StateOpen
			}
		}
	}
}
