package cluster

import (
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClusterHandoffRace is the conformance-style race hardening for
// tenant handoff, meant to run under -race: three nodes serve concurrent
// Get/feedback/reembed traffic while membership flaps (a node is killed
// and revived), which forces the survivors to drain tenants back to the
// rejoining node mid-flight. Invariants:
//
//   - no dropped requests: every query and feedback call succeeds, even
//     while its tenant is being handed off (Drain waits for in-flight
//     references instead of yanking them);
//   - no double-serve: once the rings converge and the sweeps settle,
//     every resident tenant is resident only on its ring owner.
func TestClusterHandoffRace(t *testing.T) {
	h := startTestCluster(t, 3, nil)
	client := &http.Client{Timeout: 10 * time.Second}
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	const users = 16
	names := tenantNames(users, 123)
	for u, name := range names {
		if _, err := queryUser(client, pickEntry(h, u), name, userText(u, 0)); err != nil {
			t.Fatalf("warming %s: %v", name, err)
		}
	}

	stop := make(chan struct{})
	var dropped atomic.Int64
	var requests atomic.Int64
	var wg sync.WaitGroup

	// Query + feedback workers, entering through whichever nodes are
	// live at the moment of each request.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := rng.Intn(users)
				requests.Add(1)
				if i%5 == 4 {
					if _, err := postWithEntryFailover[struct {
						Tau float32 `json:"tau"`
					}](h, client, "/v1/feedback", map[string]string{"user": names[u]}, rng.Int()); err != nil {
						dropped.Add(1)
						t.Logf("feedback dropped: %v", err)
					}
				} else {
					body := map[string]string{"user": names[u], "query": userText(u, 0)}
					if _, err := postWithEntryFailover[struct{}](h, client, "/v1/query", body, rng.Int()); err != nil {
						dropped.Add(1)
						t.Logf("query dropped: %v", err)
					}
				}
			}
		}(w)
	}

	// Reembed worker: pins tenants on their current owner (the FL
	// rollout's access pattern) concurrent with drains. Paced against
	// the query workers' progress instead of a timer, so it interleaves
	// with real traffic on fast and slow machines alike.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(77))
		last := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if cur := requests.Load(); cur == last {
				time.Sleep(200 * time.Microsecond) // poll for worker progress
				continue
			} else {
				last = cur
			}
			name := names[rng.Intn(users)]
			hn := h.NodeAt(h.Owner(name))
			if hn == nil || !hn.Alive() {
				continue
			}
			tenant := hn.Registry().Get(name)
			tenant.Client.Reembed()
			tenant.Release()
		}
	}()

	// Membership flaps: kill a node (its tenants remap to survivors),
	// revive it (survivors drain those tenants back) — twice. Each flap
	// waits for the workers to land a batch of requests under the
	// current membership (not for a timer): the race surface provably
	// ran, without over-sleeping on fast machines or racing on slow ones.
	const flapAfter = 40 // requests under each membership before flapping
	for cycle := 0; cycle < 2; cycle++ {
		waitRequests(t, &requests, flapAfter, 10*time.Second)
		if err := h.Kill(2, true); err != nil {
			t.Errorf("kill cycle %d: %v", cycle, err)
		}
		if err := h.WaitConverged(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		waitRequests(t, &requests, flapAfter, 10*time.Second)
		if err := h.Revive(2); err != nil {
			t.Fatal(err)
		}
		if err := h.WaitConverged(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitRequests(t, &requests, flapAfter, 10*time.Second)
	close(stop)
	wg.Wait()

	if n := dropped.Load(); n > 0 {
		t.Errorf("%d of %d requests dropped during handoff (want 0)", n, requests.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("no requests issued — the race surface never ran")
	}

	// Single-ownership settles once the sweeps catch up: poll until
	// every resident tenant lives only on its ring owner.
	deadline := time.Now().Add(5 * time.Second)
	for {
		violations := singleOwnerViolations(h)
		if len(violations) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("double-serve after settling: %v", violations)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitRequests blocks until the workers have issued n more requests
// than when it was called — condition-based pacing that replaces the
// fixed sleeps this suite used to flake on under -race scheduling.
func waitRequests(t *testing.T, counter *atomic.Int64, n int64, timeout time.Duration) {
	t.Helper()
	target := counter.Load() + n
	deadline := time.Now().Add(timeout)
	for counter.Load() < target {
		if time.Now().After(deadline) {
			t.Fatalf("workers issued %d of %d requests within %v", counter.Load()-(target-n), n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// singleOwnerViolations lists tenants resident on a live node that is
// not their ring owner.
func singleOwnerViolations(h *Harness) []string {
	var bad []string
	for _, hn := range h.Nodes() {
		if !hn.Alive() {
			continue
		}
		for _, id := range hn.Registry().IDs() {
			if owner := hn.ClusterNode().Ring().Owner(id); owner != hn.Addr {
				bad = append(bad, id+"@"+hn.Addr+"(owner "+owner+")")
			}
		}
	}
	return bad
}
