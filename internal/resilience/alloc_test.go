package resilience

import (
	"testing"
	"time"

	"repro/internal/raceflag"
)

// The admission checks ride the PR 5 zero-alloc query hot path: a
// tracked tenant's quota check, a closed breaker's Allow/Record pair,
// and an uncontended limiter Acquire/Release must all be free.

func TestQuotaAllowZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	tb := NewTokenBuckets(QuotaConfig{Rate: 1e9, Burst: 1e9})
	tb.Allow("tenant-hot") // create the bucket outside the measured loop
	if n := testing.AllocsPerRun(1000, func() {
		if rej := tb.Allow("tenant-hot"); rej != nil {
			t.Fatalf("unexpected rejection: %v", rej)
		}
	}); n != 0 {
		t.Fatalf("TokenBuckets.Allow allocates %v/op on the hot path, want 0", n)
	}
}

func TestBreakerClosedZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	b := NewBreaker(BreakerConfig{Window: 64})
	if n := testing.AllocsPerRun(1000, func() {
		if rej := b.Allow(); rej != nil {
			t.Fatalf("closed breaker rejected: %v", rej)
		}
		b.Record(true)
	}); n != 0 {
		t.Fatalf("closed Breaker Allow+Record allocates %v/op, want 0", n)
	}
}

func TestLimiterUncontendedZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	l := NewLimiter(LimiterConfig{MaxLimit: 64, InitialLimit: 64})
	if n := testing.AllocsPerRun(1000, func() {
		if !l.TryAcquire() {
			t.Fatalf("uncontended acquire failed")
		}
		l.Release(OutcomeSuccess, time.Millisecond)
	}); n != 0 {
		t.Fatalf("uncontended Limiter acquire/release allocates %v/op, want 0", n)
	}
}
