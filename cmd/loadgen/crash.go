package main

// The crash scenario is the crash-loop e2e gate behind `make crashtest`:
// a real cacheserve process is started, driven with live traffic, and
// SIGKILLed mid-flight, over and over, against one persist dir. After
// every restart the generator verifies that no tenant whose state was
// durably persisted (by a clean shutdown's registry flush) has lost its
// canonical entry, and that the server came up without tripping over
// whatever the kill tore. One cycle additionally corrupts a persisted
// snapshot on disk while the server is down and requires the restarted
// server to quarantine it and serve that tenant cold — never to crash
// or error on it.
//
// Cycle schedule: cycle 0 and every 6th cycle shut down cleanly (SIGINT,
// which flushes every resident tenant — those users join the "synced"
// set the next verification asserts on); every other cycle is killed
// with SIGKILL while traffic is in flight. 26 cycles give 21 SIGKILLs,
// clearing the ≥20 acceptance floor.
//
// Gates: every restart healthy, every synced tenant's canonical probe
// hits, zero unexpected request failures outside kill windows, and
// exactly one quarantine — in the injected-corruption cycle, nowhere
// else.

import (
	"encoding/hex"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

const (
	crashAddr       = "127.0.0.1:18095" // where the spawned server listens
	crashCycles     = 26                // every 6th is a clean shutdown, the rest SIGKILL
	crashMinKills   = 20
	crashUsers      = 24
	crashMaxTenants = 8 // server resident-tenant bound (< users forces eviction churn)
	// crashCorruptAt is the cycle before which a synced tenant's snapshot
	// is bit-mangled on disk (while the server is down).
	crashCorruptAt = 14
)

func crashUser(u int) string { return fmt.Sprintf("crash-user-%03d", u) }

// crashCanonical is the entry user u re-asserts every cycle: the one a
// synced tenant must never lose.
func crashCanonical(u int) job {
	return job{user: crashUser(u), text: fmt.Sprintf("what is the canonical answer for user %03d", u)}
}

func runCrash(e env) ([]gate, error) {
	t := newTarget(e.timeout, "http://"+crashAddr)
	rng := rand.New(rand.NewSource(e.seed))

	synced := map[int]bool{} // users whose canonical entry is durably persisted
	var startFailures, lostSynced, unexpected, quarantineFails, sigkills, cleanShutdowns int

	for cycle := 0; cycle < crashCycles; cycle++ {
		clean := cycle%6 == 0
		victim := -1 // user whose snapshot was corrupted (this cycle only)
		if cycle == crashCorruptAt {
			var err error
			if victim, err = corruptSnapshot(e.crashDir, rng, synced); err != nil {
				return nil, err
			}
		}

		proc := exec.Command(e.crashBin,
			"-addr", crashAddr,
			"-max-tenants", strconv.Itoa(crashMaxTenants),
			"-persist-dir", e.crashDir,
		)
		proc.Stderr = os.Stderr
		if err := proc.Start(); err != nil {
			return nil, fmt.Errorf("cycle %d: starting %s: %w", cycle, e.crashBin, err)
		}
		if err := t.waitHealthy(15 * time.Second); err != nil {
			startFailures++
			log.Printf("crash: cycle %d: FAIL: server not healthy after restart: %v", cycle, err)
			proc.Process.Kill()
			proc.Wait()
			break
		}

		// Verification: every synced tenant must still hold its canonical
		// entry; the corrupted one must be served cold (quarantined, not
		// crashed on).
		for u := range synced {
			switch o := t.send(crashCanonical(u)); {
			case !o.served():
				unexpected++
				log.Printf("crash: cycle %d: verify %s: %s", cycle, crashUser(u), o.problem())
			case !o.reply.Hit:
				lostSynced++
				log.Printf("crash: cycle %d: FAIL: synced tenant %s lost its canonical entry", cycle, crashUser(u))
			}
		}
		wantQuarantines := int64(0)
		if victim >= 0 {
			wantQuarantines = 1
			if o := t.send(crashCanonical(victim)); !o.served() {
				unexpected++
				log.Printf("crash: cycle %d: corrupt-snapshot probe: %s", cycle, o.problem())
			} else if o.reply.Hit {
				quarantineFails++
				log.Printf("crash: cycle %d: FAIL: corrupted snapshot served a hit (not quarantined?)", cycle)
			}
		}
		if s, err := t.scrape(); err != nil {
			unexpected++
			log.Printf("crash: cycle %d: stats: %v", cycle, err)
		} else if q := s.stats.Registry.Quarantines; q != wantQuarantines {
			quarantineFails++
			log.Printf("crash: cycle %d: FAIL: quarantines = %d, want %d", cycle, q, wantQuarantines)
		}

		// Traffic: every user re-asserts their canonical entry (teaching
		// it on a miss) plus fresh queries forcing eviction churn, so
		// snapshots are constantly being rewritten when the kill lands.
		var jobs []job
		for u := 0; u < crashUsers; u++ {
			jobs = append(jobs, crashCanonical(u))
			for p := 0; p < 3; p++ {
				jobs = append(jobs, job{user: crashUser(u), text: fmt.Sprintf("novel question %d from user %03d in cycle %d", p, u, cycle)})
			}
		}
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

		// The kill lands two fifths of the way through the dispatch, with
		// a full worker pool of requests in flight. Failures from then on
		// are its expected collateral; any earlier one is a gate failure.
		killAt := len(jobs) * 2 / 5
		var killFired atomic.Bool
		p := newPhase()
		drive(jobs, e.concurrency, func(j job) {
			if o := t.send(j); o.served() || !killFired.Load() {
				p.record(j, o)
			}
		}, func(dispatched int) {
			if !clean && dispatched == killAt {
				killFired.Store(true)
				proc.Process.Kill() // SIGKILL: no flush, no goodbye
			}
		})
		if p.failed() > 0 {
			unexpected += p.failed()
			log.Printf("crash: cycle %d: %s outside the kill window", cycle, p.failures())
		}

		if clean {
			proc.Process.Signal(os.Interrupt) // graceful: flushes every resident tenant
			if err := waitExit(proc, 20*time.Second); err != nil {
				unexpected++
				log.Printf("crash: cycle %d: clean shutdown: %v", cycle, err)
			}
			cleanShutdowns++
			// Every user has queried at least once, so every tenant was
			// either evicted (persisting) or flushed at shutdown: all are
			// durably synced now.
			for u := 0; u < crashUsers; u++ {
				synced[u] = true
			}
			log.Printf("crash: cycle %d: clean shutdown, %d tenants synced", cycle, crashUsers)
		} else {
			proc.Wait()
			sigkills++
			log.Printf("crash: cycle %d: SIGKILL after %d/%d requests (%d tolerated in-flight failures)",
				cycle, p.served, len(jobs), len(jobs)-p.served)
		}
	}

	fmt.Printf("\n=== crashtest report ===\n")
	fmt.Printf("cycles             %d (%d SIGKILL, %d clean)\n", crashCycles, sigkills, cleanShutdowns)
	fmt.Printf("synced tenants     %d\n", len(synced))
	return []gate{
		check("kill cycles", sigkills >= crashMinKills, "%d kill/restart cycles (gate ≥ %d)", sigkills, crashMinKills),
		check("start failures", startFailures == 0, "%d restarts came up unhealthy (gate 0)", startFailures),
		check("lost synced", lostSynced == 0, "%d synced tenants lost their canonical entry (gate 0)", lostSynced),
		check("unexpected errors", unexpected == 0, "%d request errors outside kill windows (gate 0)", unexpected),
		check("quarantine checks", quarantineFails == 0,
			"%d cycles off the expected quarantine count (gate: exactly the injected one)", quarantineFails),
	}, nil
}

func waitExit(proc *exec.Cmd, budget time.Duration) error {
	ch := make(chan error, 1)
	go func() { ch <- proc.Wait() }()
	select {
	case err := <-ch:
		return err
	case <-time.After(budget):
		proc.Process.Kill()
		<-ch
		return fmt.Errorf("no exit within %v", budget)
	}
}

// corruptSnapshot picks a synced tenant and wrecks its persisted cache
// payload in place — a structurally valid store record whose value is
// neither entry format the cache loader reads (no 0x81 format byte, so
// it falls to the legacy gob decode, which rejects it). The server is
// down when this runs. Returns the victim user, removed from the synced set (its
// canonical entry is gone with the quarantined file).
func corruptSnapshot(dir string, rng *rand.Rand, synced map[int]bool) (int, error) {
	var candidates []int
	for u := range synced {
		candidates = append(candidates, u)
	}
	sort.Ints(candidates) // map order is random; keep the seeded pick reproducible
	victim := candidates[rng.Intn(len(candidates))]
	// The registry's persistPath layout: the user ID hex-encoded, ".cache"
	// suffix, in the persist dir.
	path := filepath.Join(dir, hex.EncodeToString([]byte(crashUser(victim)))+".cache")
	st, err := store.Open(path)
	if err != nil {
		return 0, fmt.Errorf("opening snapshot to corrupt: %w", err)
	}
	if err := st.Put("entry/0", []byte("deliberately not a gob stream")); err != nil {
		return 0, fmt.Errorf("corrupting snapshot: %w", err)
	}
	if err := st.Close(); err != nil {
		return 0, fmt.Errorf("closing corrupted snapshot: %w", err)
	}
	delete(synced, victim)
	log.Printf("crash: corrupted snapshot of %s (%s)", crashUser(victim), path)
	return victim, nil
}
