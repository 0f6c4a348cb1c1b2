package flserve

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/store"
)

// Collector turns live serving signals into per-tenant private training
// shards — the example-collection half of the online FL loop. It
// implements server.Observer; the serving layer feeds it every query and
// feedback report, and the round scheduler samples cohorts from the
// tenants whose shards have grown large enough to train on.
//
// Label sources, in decreasing trust:
//
//   - missed_dup feedback → positive pair (query, earlier duplicate):
//     the user explicitly pointed at the earlier question.
//   - false_hit feedback → negative pair (query, wrongly served cached
//     query); it also retracts the tentative positive the hit recorded.
//   - cache hit → tentative positive pair (query, matched cached query),
//     trusted unless false-hit feedback retracts it.
//   - cache miss → weakly supervised negative pair (query, a recent
//     query of the same tenant), sampled at NegativeRate: the cache
//     judged them non-duplicates and the user did not object. Mildly
//     noisy, which contrastive training tolerates.
//
// Raw texts never leave the process: shards stay keyed to the tenant and
// only model weights and thresholds exit through the FL round.
type Collector struct {
	cfg CollectorConfig

	mu      sync.RWMutex
	tenants map[string]*tenantShard

	// stats
	positives atomic.Int64
	negatives atomic.Int64
	retracted atomic.Int64
}

// CollectorConfig bounds the collector.
type CollectorConfig struct {
	// MaxPairs caps each tenant's shard; the oldest pair is overwritten
	// when full (ring). Defaults to 256.
	MaxPairs int
	// RecentQueries sizes the per-tenant ring of recent query texts used
	// to mine miss-path negatives. Defaults to 32.
	RecentQueries int
	// NegativeRate is the probability a cache miss emits a weak negative
	// pair. Defaults to 0.25; negative sampling keeps shards from being
	// swamped by the miss-heavy cold-start phase.
	NegativeRate float64
	// Seed drives per-tenant negative sampling.
	Seed int64
}

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.MaxPairs <= 0 {
		c.MaxPairs = 256
	}
	if c.RecentQueries <= 0 {
		c.RecentQueries = 32
	}
	if c.NegativeRate <= 0 {
		c.NegativeRate = 0.25
	}
	return c
}

// tenantShard is one tenant's bounded private example buffer.
type tenantShard struct {
	mu     sync.Mutex
	pairs  []dataset.Pair // ring, capacity cfg.MaxPairs
	next   int            // ring cursor once full
	recent []string       // ring of recent query texts
	rnext  int
	rng    *rand.Rand
	dirty  bool  // has changed since last successful persistence
	ver    int64 // bumped on every mutation, fences SaveTo's dirty clear
}

// chronological returns the pairs oldest-first (the ring unrotated).
func (ts *tenantShard) chronological() []dataset.Pair {
	out := make([]dataset.Pair, 0, len(ts.pairs))
	out = append(out, ts.pairs[ts.next:]...)
	out = append(out, ts.pairs[:ts.next]...)
	return out
}

// NewCollector builds a collector.
func NewCollector(cfg CollectorConfig) *Collector {
	return &Collector{cfg: cfg.withDefaults(), tenants: make(map[string]*tenantShard)}
}

var _ server.Observer = (*Collector)(nil)

func (c *Collector) shard(user string) *tenantShard {
	c.mu.RLock()
	ts, ok := c.tenants[user]
	c.mu.RUnlock()
	if ok {
		return ts
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts, ok = c.tenants[user]; ok {
		return ts
	}
	h := fnv.New64a()
	h.Write([]byte(user))
	ts = &tenantShard{rng: rand.New(rand.NewSource(c.cfg.Seed + int64(h.Sum64())))}
	c.tenants[user] = ts
	return ts
}

// append adds a pair to the ring, overwriting the oldest when full.
func (ts *tenantShard) append(p dataset.Pair, cap int) {
	if len(ts.pairs) < cap {
		ts.pairs = append(ts.pairs, p)
	} else {
		ts.pairs[ts.next] = p
		ts.next = (ts.next + 1) % cap
	}
	ts.dirty = true
	ts.ver++
}

// ObserveQuery implements server.Observer.
func (c *Collector) ObserveQuery(user, query string, hit bool, matchedQuery string, _ float32) {
	ts := c.shard(user)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if hit {
		if matchedQuery != "" && matchedQuery != query {
			ts.append(dataset.Pair{A: query, B: matchedQuery, Dup: true}, c.cfg.MaxPairs)
			c.positives.Add(1)
		}
	} else if len(ts.recent) > 0 && ts.rng.Float64() < c.cfg.NegativeRate {
		other := ts.recent[ts.rng.Intn(len(ts.recent))]
		if other != query {
			ts.append(dataset.Pair{A: query, B: other, Dup: false}, c.cfg.MaxPairs)
			c.negatives.Add(1)
		}
	}
	// Track recency for negative mining (hits too: a future unrelated
	// query is a negative against any past query).
	if len(ts.recent) < c.cfg.RecentQueries {
		ts.recent = append(ts.recent, query)
	} else {
		ts.recent[ts.rnext] = query
		ts.rnext = (ts.rnext + 1) % c.cfg.RecentQueries
	}
}

// ObserveFeedback implements server.Observer.
func (c *Collector) ObserveFeedback(user string, fb server.Feedback) {
	ts := c.shard(user)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	switch fb.Kind {
	case server.FeedbackMissedDup:
		if fb.Query != "" && fb.Other != "" && fb.Query != fb.Other {
			ts.append(dataset.Pair{A: fb.Query, B: fb.Other, Dup: true}, c.cfg.MaxPairs)
			c.positives.Add(1)
		}
	case server.FeedbackFalseHit:
		// Retract the tentative positive the wrong hit recorded, turning
		// it into a negative. With texts attached we find it exactly;
		// a bare report flips the most recent positive (best effort).
		flip := func(i int) {
			ts.pairs[i].Dup = false
			ts.dirty = true
			ts.ver++
			c.retracted.Add(1)
		}
		for k := 0; k < len(ts.pairs); k++ {
			i := (ts.next - 1 - k + 2*len(ts.pairs)) % len(ts.pairs)
			p := ts.pairs[i]
			if fb.Query != "" {
				if p.A == fb.Query && (fb.Other == "" || p.B == fb.Other) {
					if p.Dup {
						flip(i)
					}
					return
				}
			} else if p.Dup {
				flip(i)
				return
			}
		}
		// No matching pair in the ring (aged out): record the negative
		// directly when the texts are known.
		if fb.Query != "" && fb.Other != "" {
			ts.append(dataset.Pair{A: fb.Query, B: fb.Other, Dup: false}, c.cfg.MaxPairs)
			c.negatives.Add(1)
		}
	}
}

// Shard returns a copy of user's current pairs (nil if unknown).
func (c *Collector) Shard(user string) []dataset.Pair {
	c.mu.RLock()
	ts, ok := c.tenants[user]
	c.mu.RUnlock()
	if !ok {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]dataset.Pair, len(ts.pairs))
	copy(out, ts.pairs)
	return out
}

// Eligible lists tenants whose shards hold at least minPairs examples —
// the sampling frame for cohort selection — in sorted order, so a
// seeded draw from it is a function of the seed.
func (c *Collector) Eligible(minPairs int) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for user, ts := range c.tenants {
		ts.mu.Lock()
		n := len(ts.pairs)
		ts.mu.Unlock()
		if n >= minPairs {
			out = append(out, user)
		}
	}
	sort.Strings(out)
	return out
}

// CollectorStats snapshots collection activity.
type CollectorStats struct {
	Tenants   int   `json:"tenants"`
	Pairs     int   `json:"pairs"`
	Positives int64 `json:"positives"`
	Negatives int64 `json:"negatives"`
	Retracted int64 `json:"retracted"`
}

// Stats snapshots the collector.
func (c *Collector) Stats() CollectorStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := CollectorStats{
		Tenants:   len(c.tenants),
		Positives: c.positives.Load(),
		Negatives: c.negatives.Load(),
		Retracted: c.retracted.Load(),
	}
	for _, ts := range c.tenants {
		ts.mu.Lock()
		s.Pairs += len(ts.pairs)
		ts.mu.Unlock()
	}
	return s
}

// shardKey namespaces persisted shards within the coordinator's store.
func shardKey(user string) string { return "flshard/" + hex.EncodeToString([]byte(user)) }

// SaveTo persists every dirty shard into st (one gob record per tenant,
// tenants in sorted order, pairs in chronological order), so collected
// examples survive a serving-process restart. Called by the coordinator
// after each round and on shutdown. The dirty flag clears only after a
// successful write — and only if the shard did not change while the
// write was in flight — so a failed or raced persistence retries next
// time.
func (c *Collector) SaveTo(st *store.Store) error {
	c.mu.RLock()
	users := make([]string, 0, len(c.tenants))
	for u := range c.tenants {
		users = append(users, u)
	}
	c.mu.RUnlock()
	sort.Strings(users)
	for _, user := range users {
		ts := c.shard(user)
		ts.mu.Lock()
		if !ts.dirty {
			ts.mu.Unlock()
			continue
		}
		pairs := ts.chronological()
		ver := ts.ver
		ts.mu.Unlock()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(pairs); err != nil {
			return err
		}
		if err := st.Put(shardKey(user), buf.Bytes()); err != nil {
			return err
		}
		ts.mu.Lock()
		if ts.ver == ver {
			ts.dirty = false
		}
		ts.mu.Unlock()
	}
	return nil
}

// LoadFrom restores shards persisted by SaveTo. Existing in-memory shards
// for the same tenants are replaced.
func (c *Collector) LoadFrom(st *store.Store) error {
	for _, key := range st.Keys() {
		if len(key) <= len("flshard/") || key[:len("flshard/")] != "flshard/" {
			continue
		}
		userBytes, err := hex.DecodeString(key[len("flshard/"):])
		if err != nil {
			continue
		}
		raw, err := st.Get(key)
		if err != nil {
			return err
		}
		var pairs []dataset.Pair
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&pairs); err != nil {
			return err
		}
		ts := c.shard(string(userBytes))
		ts.mu.Lock()
		if len(pairs) > c.cfg.MaxPairs {
			pairs = pairs[len(pairs)-c.cfg.MaxPairs:]
		}
		ts.pairs = pairs
		ts.next = 0
		ts.dirty = false
		ts.mu.Unlock()
	}
	return nil
}
