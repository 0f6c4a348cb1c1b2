package resilience

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

func testBuckets(clk *sim.VirtualClock, rate, burst float64) *TokenBuckets {
	return NewTokenBuckets(QuotaConfig{Rate: rate, Burst: burst, Clock: clk})
}

// TestTokenBucketBurstThenRefill: a fresh tenant gets exactly Burst
// tokens, then refills at Rate.
func TestTokenBucketBurstThenRefill(t *testing.T) {
	clk := sim.NewVirtual()
	tb := testBuckets(clk, 10, 5)

	for i := 0; i < 5; i++ {
		if rej := tb.Allow("alice"); rej != nil {
			t.Fatalf("burst request %d rejected: %v", i, rej)
		}
	}
	rej := tb.Allow("alice")
	if rej == nil {
		t.Fatalf("request past burst admitted")
	}
	if rej.Reason != ReasonQuota {
		t.Fatalf("reason = %q, want %q", rej.Reason, ReasonQuota)
	}
	// Empty bucket at 10/s: the next token is 100ms away.
	if rej.RetryAfter != 100*time.Millisecond {
		t.Fatalf("retry-after = %v, want 100ms", rej.RetryAfter)
	}

	// 250ms refills 2.5 tokens: exactly 2 more requests pass.
	clk.Advance(250 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if rej := tb.Allow("alice"); rej != nil {
			t.Fatalf("post-refill request %d rejected: %v", i, rej)
		}
	}
	if tb.Allow("alice") == nil {
		t.Fatalf("third post-refill request admitted (only 2.5 tokens refilled)")
	}
}

// TestTokenBucketRefillAccuracy: over a long horizon the admitted count
// converges to burst + rate×time, independent of the polling cadence.
func TestTokenBucketRefillAccuracy(t *testing.T) {
	clk := sim.NewVirtual()
	tb := testBuckets(clk, 7, 3)

	admitted := 0
	// Poll aggressively (every 10ms for 10s); the bucket must admit
	// exactly burst + floor-ish rate×10s.
	for i := 0; i < 1000; i++ {
		clk.Advance(10 * time.Millisecond)
		for tb.Allow("bob") == nil {
			admitted++
		}
	}
	want := 3 + 7*10 // burst + rate×10s
	if admitted < want-1 || admitted > want+1 {
		t.Fatalf("admitted %d over 10s, want ~%d (rate 7, burst 3)", admitted, want)
	}
	if got := tb.Allowed(); got != int64(admitted) {
		t.Fatalf("Allowed() = %d, want %d", got, admitted)
	}
	if tb.Rejected() == 0 {
		t.Fatalf("expected rejections from aggressive polling")
	}
}

// TestTokenBucketCapsAtBurst: idling does not accumulate more than Burst.
func TestTokenBucketCapsAtBurst(t *testing.T) {
	clk := sim.NewVirtual()
	tb := testBuckets(clk, 10, 4)
	if tb.Allow("carol") != nil {
		t.Fatalf("first request rejected")
	}
	clk.Advance(time.Hour)
	admitted := 0
	for tb.Allow("carol") == nil {
		admitted++
	}
	if admitted != 4 {
		t.Fatalf("admitted %d after an hour idle, want burst (4)", admitted)
	}
}

// TestTokenBucketTenantIsolation: one tenant exhausting its bucket does
// not affect another's.
func TestTokenBucketTenantIsolation(t *testing.T) {
	clk := sim.NewVirtual()
	tb := testBuckets(clk, 5, 2)
	tb.Allow("greedy")
	tb.Allow("greedy")
	if tb.Allow("greedy") == nil {
		t.Fatalf("greedy tenant not limited")
	}
	if rej := tb.Allow("quiet"); rej != nil {
		t.Fatalf("quiet tenant rejected by greedy tenant's spend: %v", rej)
	}
	s := tb.Stats()
	if s.Tenants != 2 {
		t.Fatalf("tenants = %d, want 2", s.Tenants)
	}
	if len(s.TopShed) != 1 || s.TopShed[0].Tenant != "greedy" || s.TopShed[0].Shed != 1 {
		t.Fatalf("top shed = %+v, want [{greedy 1}]", s.TopShed)
	}
}

// TestTokenBucketMaxTenantsDegradesOpen: a full table admits new tenants
// untracked instead of blocking or evicting.
func TestTokenBucketMaxTenantsDegradesOpen(t *testing.T) {
	clk := sim.NewVirtual()
	tb := NewTokenBuckets(QuotaConfig{Rate: 1, Burst: 1, Shards: 1, MaxTenants: 2, Clock: clk})
	for i := 0; i < 10; i++ {
		tenant := fmt.Sprintf("t%d", i)
		if rej := tb.Allow(tenant); rej != nil {
			t.Fatalf("tenant %s first request rejected: %v", tenant, rej)
		}
	}
	if tb.Tenants() > 3 {
		t.Fatalf("tracked %d tenants, MaxTenants 2 (shard cap 3)", tb.Tenants())
	}
	// Tracked tenants still enforce.
	if tb.Allow("t0") == nil {
		t.Fatalf("tracked tenant not limited after burst spent")
	}
}

// TestTokenBucketConcurrentTenants hammers the table from many
// goroutines (run with -race) and checks counter conservation.
func TestTokenBucketConcurrentTenants(t *testing.T) {
	tb := NewTokenBuckets(QuotaConfig{Rate: 50, Burst: 10})
	const (
		tenants = 8
		workers = 4
		perW    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				tb.Allow(fmt.Sprintf("tenant-%d", (w+i)%tenants))
			}
		}(w)
	}
	wg.Wait()
	if got := tb.Allowed() + tb.Rejected(); got != workers*perW {
		t.Fatalf("allowed+rejected = %d, want %d", got, workers*perW)
	}
	if tb.Tenants() != tenants {
		t.Fatalf("tenants = %d, want %d", tb.Tenants(), tenants)
	}
}
