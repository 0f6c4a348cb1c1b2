package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestRandomOperationsInvariants drives the cache through long random
// operation sequences and checks the structural invariants after every
// step:
//
//  1. byID is a bijection onto the entries slice,
//  2. no live entry has a dangling parent,
//  3. Len never exceeds capacity (when bounded),
//  4. Chain always terminates and is acyclic,
//  5. every child list holds exactly the entries whose Parent it is,
//  6. the eviction heap is ordered and every entry's pos is its slot.
func TestRandomOperationsInvariants(t *testing.T) {
	for _, capacity := range []int{0, 8, 32} {
		for _, policy := range []Policy{LRU{}, LFU{}, FIFO{}} {
			name := fmt.Sprintf("cap=%d/%s", capacity, policy.Name())
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(capacity)*31 + 7))
				c := New(8, capacity, policy)
				var live []int
				for step := 0; step < 2000; step++ {
					switch op := rng.Intn(10); {
					case op < 5: // Put (sometimes as a child)
						parent := NoParent
						if len(live) > 0 && rng.Intn(3) == 0 {
							parent = live[rng.Intn(len(live))]
						}
						if _, ok := c.Get(parent); parent != NoParent && !ok {
							parent = NoParent // parent already evicted
						}
						id, err := c.Put("q", "r", unit(8, int64(step)), parent)
						if err != nil {
							t.Fatalf("step %d: Put: %v", step, err)
						}
						live = append(live, id)
					case op < 7: // Touch a random id (live or not)
						if len(live) > 0 {
							c.Touch(live[rng.Intn(len(live))])
						}
					case op < 8: // Remove a random id
						if len(live) > 0 {
							c.Remove(live[rng.Intn(len(live))])
						}
					default: // Search
						c.FindSimilar(unit(8, int64(step)), 3, 0.5)
					}
					checkInvariants(t, c, capacity, step)
				}
			})
		}
	}
}

func checkInvariants(t *testing.T, c *Cache, capacity, step int) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.byID) != len(c.entries) {
		t.Fatalf("step %d: byID size %d != entries %d", step, len(c.byID), len(c.entries))
	}
	if capacity > 0 && len(c.entries) > capacity {
		t.Fatalf("step %d: %d entries exceed capacity %d", step, len(c.entries), capacity)
	}
	children := make(map[int][]int)
	for i, e := range c.entries {
		if got, ok := c.byID[e.ID]; !ok || got != e {
			t.Fatalf("step %d: byID[%d] = %p,%v; want entry %p", step, e.ID, got, ok, e)
		}
		if e.Parent != NoParent {
			if _, ok := c.byID[e.Parent]; !ok {
				t.Fatalf("step %d: entry %d has dangling parent %d", step, e.ID, e.Parent)
			}
			children[e.Parent] = append(children[e.Parent], e.ID)
		}
		checkHeapSlot(t, c, i, step)
	}
	// Every child list holds exactly the entries naming it as Parent.
	for _, e := range c.entries {
		got, want := slices.Sorted(slices.Values(e.children)), slices.Sorted(slices.Values(children[e.ID]))
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: entry %d children %v, want %v", step, e.ID, got, want)
		}
	}
	// Chains terminate (acyclic) — bounded walk.
	for _, e := range c.entries {
		seen := map[int]bool{}
		cur := e
		for cur.Parent != NoParent {
			if seen[cur.ID] {
				t.Fatalf("step %d: cycle through entry %d", step, cur.ID)
			}
			seen[cur.ID] = true
			p, ok := c.byID[cur.Parent]
			if !ok {
				break
			}
			cur = p
		}
	}
}

// checkHeapSlot checks entry i's heap position and order: pos is its
// index, its stored key is not below its parent slot's, and no stored key
// is above its live key (keys only grow, which the lazy pop relies on).
func checkHeapSlot(t *testing.T, c *Cache, i, step int) {
	t.Helper()
	e := c.entries[i]
	if e.pos != i {
		t.Fatalf("step %d: entry %d at heap slot %d records pos %d", step, e.ID, i, e.pos)
	}
	if p := (i - 1) / 2; i > 0 && e.key.less(c.entries[p].key) {
		t.Fatalf("step %d: heap slot %d key %v below its parent slot's %v", step, i, e.key, c.entries[p].key)
	}
	if live, _ := c.policy.key(e); live.less(e.key) {
		t.Fatalf("step %d: entry %d stored key %v above its live key %v", step, e.ID, e.key, live)
	}
}
