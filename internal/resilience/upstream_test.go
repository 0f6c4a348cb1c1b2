package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

// scriptedUpstream is a Caller whose behaviour each call is drawn from a
// script: nil = success, an error = failure, blockCtx = block until the
// call's context dies.
type scriptedUpstream struct {
	script []error
	pos    int
	delay  time.Duration
}

var errBlockCtx = errors.New("block until ctx done")

func (s *scriptedUpstream) QueryContext(ctx context.Context, q string) (string, time.Duration, error) {
	var step error
	if s.pos < len(s.script) {
		step = s.script[s.pos]
		s.pos++
	}
	if step == errBlockCtx {
		<-ctx.Done()
		return "", s.delay, ctx.Err()
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return "", s.delay, ctx.Err()
		}
	}
	if step != nil {
		return "", s.delay, step
	}
	return "resp:" + q, s.delay, nil
}

func guardGovernor(clk *sim.VirtualClock) *Governor {
	return NewGovernor(GovernorConfig{
		Limiter: LimiterConfig{MinLimit: 1, MaxLimit: 4, InitialLimit: 4, MaxQueue: 1, Clock: clk},
		Breaker: BreakerConfig{Window: 4, MinSamples: 2, FailureRatio: 0.5,
			OpenFor: time.Second, HalfOpenProbes: 1, Clock: clk},
	})
}

// TestGuardTripsBreakerIntoCacheOnly: upstream failures trip the breaker
// and subsequent calls shed with CacheOnly, then the breaker recovers
// through a half-open probe once the upstream heals.
func TestGuardTripsBreakerIntoCacheOnly(t *testing.T) {
	clk := sim.NewVirtual()
	g := guardGovernor(clk)
	boom := errors.New("upstream down")
	up := &scriptedUpstream{script: []error{boom, boom}}
	u := NewGuard(up, g, 0)

	for i := 0; i < 2; i++ {
		if _, _, err := u.QueryContext(context.Background(), "q"); err == nil {
			t.Fatalf("call %d should have failed", i)
		}
	}
	if g.Breaker.State() != StateOpen {
		t.Fatalf("breaker state = %s, want open", StateName(g.Breaker.State()))
	}

	// Open: the guard rejects without touching the upstream.
	_, _, err := u.QueryContext(context.Background(), "q")
	rej, ok := AsRejection(err)
	if !ok {
		t.Fatalf("open-breaker error %v is not a Rejection", err)
	}
	if !rej.CacheOnly || rej.Reason != ReasonUpstreamOpen {
		t.Fatalf("rejection = %+v, want cache-only breaker_open", rej)
	}
	if up.pos != 2 {
		t.Fatalf("upstream called while breaker open")
	}

	// Upstream heals; the cool-off elapses; one probe closes the breaker.
	clk.Advance(time.Second + time.Millisecond)
	resp, _, err := u.QueryContext(context.Background(), "probe")
	if err != nil || resp != "resp:probe" {
		t.Fatalf("probe call: %q %v", resp, err)
	}
	if g.Breaker.State() != StateClosed {
		t.Fatalf("breaker state after healed probe = %s, want closed", StateName(g.Breaker.State()))
	}
	s := u.Stats()
	if s.Calls != 3 || s.Failures != 2 || s.Successes != 1 {
		t.Fatalf("guard stats = %+v", s)
	}
}

// TestGuardTimeoutCountsAsFailure: a call exceeding the guard timeout is
// recorded as a failure for limiter and breaker.
func TestGuardTimeoutCountsAsFailure(t *testing.T) {
	clk := sim.NewVirtual()
	g := guardGovernor(clk)
	up := &scriptedUpstream{script: []error{errBlockCtx, errBlockCtx}}
	u := NewGuard(up, g, 5*time.Millisecond)

	for i := 0; i < 2; i++ {
		_, _, err := u.QueryContext(context.Background(), "slow")
		if err == nil || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: err = %v, want deadline exceeded", i, err)
		}
	}
	if u.Stats().Timeouts != 2 {
		t.Fatalf("timeouts = %d, want 2", u.Stats().Timeouts)
	}
	if g.Breaker.State() != StateOpen {
		t.Fatalf("two timeouts should trip the breaker (state %s)", StateName(g.Breaker.State()))
	}
	if g.Limiter.Stats().Decreases == 0 {
		t.Fatalf("timeouts should decrease the concurrency limit")
	}
}

// TestGuardClientDisconnectIsNeutral: the caller's own context dying
// records neither success nor failure — disconnects cannot trip the
// breaker or shrink the limit.
func TestGuardClientDisconnectIsNeutral(t *testing.T) {
	clk := sim.NewVirtual()
	g := guardGovernor(clk)
	up := &scriptedUpstream{script: []error{errBlockCtx}}
	u := NewGuard(up, g, 0)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, _, err := u.QueryContext(ctx, "q"); err == nil {
		t.Fatalf("disconnected call should error")
	}
	if g.Breaker.State() != StateClosed {
		t.Fatalf("client disconnect moved the breaker to %s", StateName(g.Breaker.State()))
	}
	bs := g.Breaker.Stats()
	if bs.WindowSamples != 0 {
		t.Fatalf("disconnect recorded an outcome: %+v", bs)
	}
	ls := g.Limiter.Stats()
	if ls.Limit != 4 || ls.Decreases != 0 {
		t.Fatalf("disconnect adjusted the limit: %+v", ls)
	}
	if g.Limiter.Inflight() != 0 {
		t.Fatalf("slot leaked on disconnect")
	}
}

// TestGuardSaturationShedsWithoutBreakerPollution: limiter saturation
// rejections must not feed fake outcomes into the breaker window.
func TestGuardSaturationShedsWithoutBreakerPollution(t *testing.T) {
	clk := sim.NewVirtual()
	g := NewGovernor(GovernorConfig{
		Limiter: LimiterConfig{MinLimit: 1, MaxLimit: 1, InitialLimit: 1, MaxQueue: 1, Clock: clk},
		Breaker: BreakerConfig{Window: 4, MinSamples: 2, OpenFor: time.Second, Clock: clk},
	})
	up := &scriptedUpstream{script: []error{errBlockCtx}}
	u := NewGuard(up, g, 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	go func() {
		close(started)
		u.QueryContext(ctx, "hog") // holds the only slot until cancel
	}()
	<-started
	waitFor(t, func() bool { return g.Limiter.Inflight() == 1 }, "hog to acquire")

	// Second call queues; third is shed as saturated.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { u.QueryContext(ctx2, "queued") }()
	waitFor(t, func() bool { return g.Limiter.QueueDepth() == 1 }, "queue to fill")
	_, _, err := u.QueryContext(context.Background(), "shed")
	rej, ok := AsRejection(err)
	if !ok || rej.Reason != ReasonSaturated {
		t.Fatalf("err = %v, want saturated rejection", err)
	}
	cancel2()
	cancel()
	waitFor(t, func() bool { return g.Limiter.Inflight() == 0 }, "slots to drain")
	if bs := g.Breaker.Stats(); bs.WindowSamples != 0 {
		t.Fatalf("sheds/disconnects polluted the breaker window: %+v", bs)
	}
}

// TestGovernorNilSafety: a nil Governor and a Guard without mechanisms
// pass everything through.
func TestGovernorNilSafety(t *testing.T) {
	var g *Governor
	if g.Admit("anyone") != nil {
		t.Fatalf("nil governor rejected")
	}
	if g.Saturated() {
		t.Fatalf("nil governor saturated")
	}
	if s := g.Stats(); s.Quota != nil || s.Limiter != nil || s.Breaker != nil {
		t.Fatalf("nil governor stats non-empty: %+v", s)
	}
	u := NewGuard(&scriptedUpstream{}, nil, 0)
	resp, _, err := u.QueryContext(context.Background(), "q")
	if err != nil || resp != "resp:q" {
		t.Fatalf("bare guard call: %q %v", resp, err)
	}
}
