package store_test

// The powerfail property test: run a scripted workload against a store
// on a crash-capturing faultfs, then reopen the store at EVERY captured
// crash point (with the unsynced suffix torn at several byte boundaries)
// and require that the recovered state is exactly the state after some
// prefix of the workload — at least everything covered by the last
// completed durability barrier (Sync or Compact), at most the operation
// in flight. That single invariant is both halves of crash consistency:
// every synced Put survives, and no phantom or reordered data appears.
// A committed Batch is one operation of the workload, so the invariant
// also says that every crash recovers a whole number of batches.

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/store/faultfs"
)

func TestPowerfailProperty(t *testing.T) {
	const (
		path    = "tenants/power.cache"
		numOps  = 140
		numKeys = 24
	)
	rng := sim.NewRNG(0xC0FFEE)

	fs := faultfs.New()
	fs.Capture(true)
	st, err := store.OpenFS(fs, path)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}

	// Drive the workload, recording after each op: the expected live
	// state, the fs mutation sequence number, and the index of the last
	// op covered by a completed durability barrier.
	state := map[string]string{}
	snap := func() map[string]string {
		c := make(map[string]string, len(state))
		for k, v := range state {
			c[k] = v
		}
		return c
	}
	expected := []map[string]string{snap()} // expected[i] = state after op i
	seqAfter := []int{fs.Seq()}             // seqAfter[i] = fs.Seq() after op i
	syncedAfter := []int{0}                 // syncedAfter[i] = last durable op index after op i

	batches := 0
	for i := 1; i <= numOps; i++ {
		synced := syncedAfter[i-1]
		switch roll := rng.Float64(); {
		case roll < 0.20:
			// A batch of puts and deletes, some on one key twice.
			var b store.Batch
			for n := 2 + rng.Intn(5); n > 0; n-- {
				k := fmt.Sprintf("key-%d", rng.Intn(numKeys))
				if rng.Float64() < 0.7 {
					v := fmt.Sprintf("val-%d-%d", i, rng.Intn(1<<20))
					b.Put(k, []byte(v))
					state[k] = v
				} else {
					b.Delete(k)
					delete(state, k)
				}
			}
			if err := st.Commit(&b); err != nil {
				t.Fatalf("op %d Commit: %v", i, err)
			}
			batches++
		case roll < 0.70:
			k := fmt.Sprintf("key-%d", rng.Intn(numKeys))
			v := fmt.Sprintf("val-%d-%d", i, rng.Intn(1<<20))
			if err := st.Put(k, []byte(v)); err != nil {
				t.Fatalf("op %d Put: %v", i, err)
			}
			state[k] = v
		case roll < 0.85:
			k := fmt.Sprintf("key-%d", rng.Intn(numKeys))
			if err := st.Delete(k); err != nil {
				t.Fatalf("op %d Delete: %v", i, err)
			}
			delete(state, k)
		case roll < 0.95:
			if err := st.Sync(); err != nil {
				t.Fatalf("op %d Sync: %v", i, err)
			}
			synced = i
		default:
			if err := st.Compact(); err != nil {
				t.Fatalf("op %d Compact: %v", i, err)
			}
			// Compact leaves the whole live state durable: the rewrite
			// is fsynced before the swap and the swap is fsynced after.
			synced = i
		}
		expected = append(expected, snap())
		seqAfter = append(seqAfter, fs.Seq())
		syncedAfter = append(syncedAfter, synced)
	}
	st.Close()

	cps := fs.CrashPoints()
	if len(cps) < numOps {
		t.Fatalf("only %d crash points captured for %d ops", len(cps), numOps)
	}

	// opIndexFor maps a crash sequence number to the workload op it
	// falls within (seqAfter is nondecreasing).
	opIndexFor := func(seq int) int {
		for i := 1; i <= numOps; i++ {
			if seq <= seqAfter[i] {
				return i
			}
		}
		return numOps
	}

	checked := 0
	for _, cp := range cps {
		opIdx := opIndexFor(cp.Seq)
		lo := syncedAfter[opIdx-1]
		if cp.Seq == seqAfter[opIdx] {
			// The op completed before this boundary; if it was a
			// barrier, its durability already holds here.
			lo = syncedAfter[opIdx]
		}

		// Tear the unsynced suffix at several boundaries: none of it,
		// all of it, and two random cuts.
		pending := len(cp.Files[path].Pending)
		cuts := []int{0, pending}
		if pending > 1 {
			cuts = append(cuts, rng.Intn(pending), rng.Intn(pending))
		}
		for _, cut := range cuts {
			rec, err := store.OpenFS(faultfs.Restore(cp, map[string]int{path: cut}), path)
			if err != nil {
				t.Fatalf("crash seq %d cut %d: corrupt open: %v", cp.Seq, cut, err)
			}
			got := make(map[string]string)
			for _, k := range rec.Keys() {
				v, err := rec.Get(k)
				if err != nil {
					t.Fatalf("crash seq %d cut %d: Get(%q): %v", cp.Seq, cut, k, err)
				}
				got[k] = string(v)
			}
			rec.Close()

			match := -1
			for k := lo; k <= opIdx; k++ {
				if mapsEqual(got, expected[k]) {
					match = k
					break
				}
			}
			if match < 0 {
				t.Fatalf("crash at seq %d (op %d, cut %d): recovered state %v matches no prefix state in [%d, %d]\nsynced floor: %v",
					cp.Seq, opIdx, cut, got, lo, opIdx, expected[lo])
			}
			checked++
		}
	}
	if checked < 2*numOps {
		t.Fatalf("property checked only %d recoveries", checked)
	}
	if batches == 0 {
		t.Fatal("the workload committed no batch")
	}
	t.Logf("verified %d crash-point recoveries across %d crash points (%d batches in the workload)", checked, len(cps), batches)
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
