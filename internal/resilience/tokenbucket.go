package resilience

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// QuotaConfig parameterises the per-tenant token buckets.
type QuotaConfig struct {
	// Rate is the sustained request budget per tenant, in tokens per
	// second. <= 0 disables quota enforcement.
	Rate float64
	// Burst is the bucket capacity: how far a quiet tenant may burst
	// above the sustained rate. Defaults to max(Rate, 1).
	Burst float64
	// Shards is the number of independently locked bucket-map shards
	// (the same idiom as the tenant registry). Defaults to 16.
	Shards int
	// MaxTenants bounds tracked buckets across all shards so an
	// unbounded tenant-ID space cannot grow the table forever. When a
	// shard is full, new tenants are admitted without a bucket (quota
	// enforcement degrades open, never blocks the request path on
	// eviction logic). Defaults to 65536.
	MaxTenants int
	// Clock is the refill time source. Nil defaults to the wall clock;
	// simulations inject a virtual one so bucket refill runs on virtual
	// time.
	Clock sim.Clock
}

// TokenBuckets is a sharded table of lazily created per-tenant token
// buckets. Allow is the hot-path admission check: a shard-read map
// lookup plus constant arithmetic under the bucket's own lock — zero
// allocations for tenants already tracked.
type TokenBuckets struct {
	cfg    QuotaConfig
	shards []bucketShard

	allowed  atomic.Int64
	rejected atomic.Int64
}

type bucketShard struct {
	mu      sync.RWMutex
	buckets map[string]*bucket
}

type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time

	shed atomic.Int64 // requests this tenant had rejected
}

// NewTokenBuckets builds the table. Panics if cfg.Rate <= 0 (the caller
// should simply not construct a disabled quota).
func NewTokenBuckets(cfg QuotaConfig) *TokenBuckets {
	if cfg.Rate <= 0 {
		panic("resilience: QuotaConfig.Rate must be positive")
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 65536
	}
	cfg.Clock = sim.Or(cfg.Clock)
	tb := &TokenBuckets{cfg: cfg, shards: make([]bucketShard, cfg.Shards)}
	for i := range tb.shards {
		tb.shards[i].buckets = make(map[string]*bucket)
	}
	return tb
}

func (tb *TokenBuckets) shard(tenant string) *bucketShard {
	// Inline FNV-1a over the string: hash.Hash32 would allocate on the
	// admission hot path.
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(tenant); i++ {
		h ^= uint32(tenant[i])
		h *= prime32
	}
	return &tb.shards[h%uint32(len(tb.shards))]
}

// Allow spends one token from tenant's bucket. It returns nil when the
// request is admitted, or a *Rejection carrying the time until the next
// token refills. A tenant's first request creates its bucket (full).
func (tb *TokenBuckets) Allow(tenant string) *Rejection {
	sh := tb.shard(tenant)
	sh.mu.RLock()
	b := sh.buckets[tenant]
	sh.mu.RUnlock()
	if b == nil {
		sh.mu.Lock()
		b = sh.buckets[tenant]
		if b == nil {
			if len(sh.buckets) >= tb.cfg.MaxTenants/len(tb.shards)+1 {
				// Table full: admit untracked rather than stall the
				// request path on eviction machinery.
				sh.mu.Unlock()
				tb.allowed.Add(1)
				return nil
			}
			b = &bucket{tokens: tb.cfg.Burst, last: tb.cfg.Clock.Now()}
			sh.buckets[tenant] = b
		}
		sh.mu.Unlock()
	}
	now := tb.cfg.Clock.Now()
	b.mu.Lock()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * tb.cfg.Rate
		if b.tokens > tb.cfg.Burst {
			b.tokens = tb.cfg.Burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		b.mu.Unlock()
		tb.allowed.Add(1)
		return nil
	}
	wait := time.Duration((1 - b.tokens) / tb.cfg.Rate * float64(time.Second))
	b.mu.Unlock()
	b.shed.Add(1)
	tb.rejected.Add(1)
	return &Rejection{Reason: ReasonQuota, RetryAfter: wait}
}

// TenantShed is one tenant's cumulative quota-rejection count.
type TenantShed struct {
	Tenant string `json:"tenant"`
	Shed   int64  `json:"shed"`
}

// QuotaStats summarises the quota table.
type QuotaStats struct {
	// Rate and Burst echo the configuration.
	Rate  float64 `json:"rate"`
	Burst float64 `json:"burst"`
	// Tenants is the number of tracked buckets.
	Tenants int `json:"tenants"`
	// Allowed and Rejected are cumulative admission outcomes.
	Allowed  int64 `json:"allowed"`
	Rejected int64 `json:"rejected"`
	// TopShed lists the tenants with the most rejections, largest
	// first, capped at 10 (empty when nothing was shed).
	TopShed []TenantShed `json:"top_shed,omitempty"`
}

// Allowed and Rejected expose the cumulative counters for metric
// callbacks without building a full snapshot.
func (tb *TokenBuckets) Allowed() int64  { return tb.allowed.Load() }
func (tb *TokenBuckets) Rejected() int64 { return tb.rejected.Load() }

// Tenants reports the number of tracked buckets.
func (tb *TokenBuckets) Tenants() int {
	n := 0
	for i := range tb.shards {
		sh := &tb.shards[i]
		sh.mu.RLock()
		n += len(sh.buckets)
		sh.mu.RUnlock()
	}
	return n
}

// Stats snapshots the table, walking every bucket once.
func (tb *TokenBuckets) Stats() QuotaStats {
	s := QuotaStats{
		Rate:     tb.cfg.Rate,
		Burst:    tb.cfg.Burst,
		Allowed:  tb.allowed.Load(),
		Rejected: tb.rejected.Load(),
	}
	var shed []TenantShed
	for i := range tb.shards {
		sh := &tb.shards[i]
		sh.mu.RLock()
		s.Tenants += len(sh.buckets)
		for tenant, b := range sh.buckets {
			if n := b.shed.Load(); n > 0 {
				shed = append(shed, TenantShed{Tenant: tenant, Shed: n})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(shed, func(i, j int) bool {
		if shed[i].Shed != shed[j].Shed {
			return shed[i].Shed > shed[j].Shed
		}
		return shed[i].Tenant < shed[j].Tenant
	})
	if len(shed) > 10 {
		shed = shed[:10]
	}
	s.TopShed = shed
	return s
}
