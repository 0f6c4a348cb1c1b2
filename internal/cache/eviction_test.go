package cache

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/store"
)

// scanOracles are the linear scans each policy evicted by before the
// eviction heap: the heap's victim must be exactly theirs.
var scanOracles = map[string]func(entries []*Entry) *Entry{
	"lru": func(entries []*Entry) *Entry {
		var best *Entry
		for _, e := range entries {
			if best == nil || e.lastUsed < best.lastUsed {
				best = e
			}
		}
		return best
	},
	"lfu": func(entries []*Entry) *Entry {
		var best *Entry
		for _, e := range entries {
			if best == nil || e.hits < best.hits ||
				(e.hits == best.hits && e.lastUsed < best.lastUsed) {
				best = e
			}
		}
		return best
	},
	"fifo": func(entries []*Entry) *Entry {
		var best *Entry
		for _, e := range entries {
			if best == nil || e.seq < best.seq {
				best = e
			}
		}
		return best
	},
}

// checkVictim asserts the heap's victim is the scan oracle's.
func checkVictim(t *testing.T, c *Cache, step int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	got, want := c.victim(), scanOracles[c.policy.Name()](c.entries)
	if got != want {
		t.Fatalf("step %d: heap victim %v, scan oracle %v", step, entryID(got), entryID(want))
	}
}

func entryID(e *Entry) any {
	if e == nil {
		return nil
	}
	return e.ID
}

// TestEvictionHeapMatchesScanOracle drives random Put (a third of them
// with a parent), Touch, Remove and SaveTo+LoadFrom from a seed, and after
// every step checks that the heap's victim is the scan oracle's, that a
// Put on a full cache evicted the oracle's pick, and the property
// checker's invariants (child lists, heap order and positions).
func TestEvictionHeapMatchesScanOracle(t *testing.T) {
	for _, capacity := range []int{8, 48} {
		for _, policy := range []Policy{LRU{}, LFU{}, FIFO{}} {
			t.Run(fmt.Sprintf("cap=%d/%s", capacity, policy.Name()), func(t *testing.T) {
				st, err := store.Open(filepath.Join(t.TempDir(), "cache.log"))
				if err != nil {
					t.Fatalf("store.Open: %v", err)
				}
				defer st.Close()
				rng := rand.New(rand.NewSource(int64(capacity)*17 + int64(len(policy.Name()))))
				c := New(8, capacity, policy)
				var live []int
				pick := func() int { return live[rng.Intn(len(live))] }
				for step := 0; step < 3000; step++ {
					switch op := rng.Intn(100); {
					case op < 50:
						parent := NoParent
						if len(live) > 0 && rng.Intn(3) == 0 {
							parent = pick()
						}
						if _, ok := c.Get(parent); !ok {
							parent = NoParent
						}
						// The oracle skips the new entry's ancestors, as Put
						// does: evicting one would orphan the new entry.
						var want *Entry
						if c.Len() >= capacity {
							c.mu.RLock()
							protected := c.ancestorSet(parent)
							var candidates []*Entry
							for _, e := range c.entries {
								if !protected[e.ID] {
									candidates = append(candidates, e)
								}
							}
							want = scanOracles[policy.Name()](candidates)
							c.mu.RUnlock()
						}
						id, err := c.Put("q", "r", unit(8, int64(step)), parent)
						if err != nil {
							t.Fatalf("step %d: Put: %v", step, err)
						}
						if want != nil {
							if _, ok := c.Get(want.ID); ok {
								t.Fatalf("step %d: the oracle's victim %d survived a full Put", step, want.ID)
							}
						}
						live = append(live, id)
					case op < 80:
						if len(live) > 0 {
							c.Touch(pick())
						}
					case op < 92:
						if len(live) > 0 {
							c.Remove(pick())
						}
					case op < 98:
						c.FindSimilar(unit(8, int64(step)), 3, 0.5)
					default:
						if err := c.SaveTo(st); err != nil {
							t.Fatalf("step %d: SaveTo: %v", step, err)
						}
						if c, err = LoadFrom(st, 8, capacity, policy); err != nil {
							t.Fatalf("step %d: LoadFrom: %v", step, err)
						}
					}
					checkInvariants(t, c, capacity, step)
					checkVictim(t, c, step)
				}
			})
		}
	}
}

// TestEvictionUnderConcurrentTouch fills a cache while other goroutines
// touch its entries (Touch runs under the read lock, so its clock ticks
// may land out of order), then checks that every stored key is still a
// lower bound on its live key and that the heap's victim is the oracle's.
func TestEvictionUnderConcurrentTouch(t *testing.T) {
	for _, policy := range []Policy{LRU{}, LFU{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			const capacity = 64
			c := New(8, capacity, policy)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for {
						select {
						case <-stop:
							return
						default:
							c.Touch(rng.Intn(4 * capacity))
						}
					}
				}(g)
			}
			for i := 0; i < 4*capacity; i++ {
				if _, err := c.Put("q", "r", unit(8, int64(i)), NoParent); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			close(stop)
			wg.Wait()
			checkInvariants(t, c, capacity, 0)
			checkVictim(t, c, 0)
		})
	}
}

// TestEvictionNonePolicyHasNoVictim: None's heap never yields a victim.
func TestEvictionNonePolicyHasNoVictim(t *testing.T) {
	c := New(4, 2, None{})
	for i := int64(0); i < 4; i++ {
		c.Put("q", "r", unit(4, i), NoParent)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := c.victim(); v != nil {
		t.Fatalf("None evicts entry %d", v.ID)
	}
}
