package store_test

// Batches and the log lock: a batch torn at any byte replays as if it
// had never been written, a damaged batch mid-log is dropped whole while
// the records beyond it are salvaged, and OpenLocked admits one store per
// log at a time, following a log that Compact renamed over its path.

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/store/faultfs"
)

// commit commits one batch of puts (kv pairs) and deletes (del).
func commit(t *testing.T, st *store.Store, kv []string, del ...string) {
	t.Helper()
	var b store.Batch
	for i := 0; i < len(kv); i += 2 {
		b.Put(kv[i], []byte(kv[i+1]))
	}
	for _, k := range del {
		b.Delete(k)
	}
	if err := st.Commit(&b); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestBatchTornAtEveryByteReplaysWholeOrNothing(t *testing.T) {
	fs := faultfs.New()
	st := mustOpen(t, fs)
	mustPut(t, st, "a", "alpha")
	commit(t, st, []string{"b", "beta", "c", "gamma"})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	before := map[string]string{"a": "alpha", "b": "beta", "c": "gamma"}
	fs.Capture(true)
	commit(t, st, []string{"a", "alpha-2", "d", "delta"}, "b")
	fs.Capture(false)
	st.Close()
	after := map[string]string{"a": "alpha-2", "c": "gamma", "d": "delta"}

	cps := fs.CrashPoints()
	cp := cps[len(cps)-1] // after the batch's one write, before any sync
	pending := len(cp.Files[logPath].Pending)
	if pending == 0 {
		t.Fatal("the batch left no unsynced bytes to tear")
	}
	for cut := 0; cut <= pending; cut++ {
		rec := mustOpen(t, faultfs.Restore(cp, map[string]int{logPath: cut}))
		want := before
		if cut == pending {
			want = after
		}
		wantState(t, rec, want)
		wantTorn := int64(0)
		if cut < pending {
			wantTorn = int64(cut)
		}
		if got := rec.Report().TailTruncated; got != wantTorn {
			t.Fatalf("cut %d of %d: TailTruncated = %d, want %d", cut, pending, got, wantTorn)
		}
		rec.Close()
	}
}

func TestDamagedBatchDroppedWholeAndTailSalvaged(t *testing.T) {
	fs := faultfs.New()
	st := mustOpen(t, fs)
	mustPut(t, st, "a", "alpha")
	start := st.SizeOnDisk()
	commit(t, st, []string{"b", "beta", "c", "gamma"})
	end := st.SizeOnDisk()
	mustPut(t, st, "d", "delta")
	commit(t, st, []string{"e", "epsilon"})
	st.Close()

	// Rot inside each record of the first batch, and in its begin and
	// commit frames: the batch goes, what follows it stays.
	for _, off := range []int64{start + 2, start + 17 + 11, end - 3} {
		rotten := faultfs.New()
		st := mustOpen(t, rotten)
		mustPut(t, st, "a", "alpha")
		commit(t, st, []string{"b", "beta", "c", "gamma"})
		mustPut(t, st, "d", "delta")
		commit(t, st, []string{"e", "epsilon"})
		st.Close()
		if err := rotten.FlipBit(logPath, off, 3); err != nil {
			t.Fatal(err)
		}
		rec := mustOpen(t, rotten)
		if rep := rec.Report(); rep.CorruptRegions != 1 || rep.TailTruncated != 0 {
			t.Fatalf("bit flip at %d: report %+v, want one corrupt region", off, rep)
		}
		wantState(t, rec, map[string]string{"a": "alpha", "d": "delta", "e": "epsilon"})
		rec.Close()
	}
}

// TestOpenLockedAdmitsOneStore drives the lock on faultfs and on the OS
// filesystem: a second OpenLocked waits for the first store's Close, and
// a store that waited while the holder compacted locks and writes the
// compacted log, not the file the rename unlinked.
func TestOpenLockedAdmitsOneStore(t *testing.T) {
	for name, fsys := range map[string]store.FS{"faultfs": faultfs.New(), "os": store.OS} {
		t.Run(name, func(t *testing.T) {
			path := logPath
			if fsys == store.OS {
				path = filepath.Join(t.TempDir(), "wal.cache")
			}
			first, err := store.OpenLocked(fsys, path)
			if err != nil {
				t.Fatal(err)
			}
			mustPut(t, first, "a", "alpha")
			mustPut(t, first, "a", "alpha-2") // garbage for Compact

			opened := make(chan *store.Store)
			go func() {
				second, err := store.OpenLocked(fsys, path)
				if err != nil {
					t.Error(err)
				}
				opened <- second
			}()
			select {
			case <-opened:
				t.Fatal("a second OpenLocked did not wait for the first store")
			case <-time.After(50 * time.Millisecond):
			}
			if err := first.Compact(); err != nil {
				t.Fatal(err)
			}
			mustPut(t, first, "b", "beta")
			if err := first.Close(); err != nil {
				t.Fatal(err)
			}
			second := <-opened
			if second == nil {
				t.FailNow()
			}
			wantState(t, second, map[string]string{"a": "alpha-2", "b": "beta"})
			mustPut(t, second, "c", "gamma")
			if err := second.Close(); err != nil {
				t.Fatal(err)
			}
			third, err := store.OpenLocked(fsys, path)
			if err != nil {
				t.Fatal(err)
			}
			defer third.Close()
			wantState(t, third, map[string]string{"a": "alpha-2", "b": "beta", "c": "gamma"})
		})
	}
}

// TestReopenKeepsTheLock: a locked store that a failed write wedged
// recovers in place with Reopen and still excludes other openers.
func TestReopenKeepsTheLock(t *testing.T) {
	fs := faultfs.New()
	st, err := store.OpenLocked(fs, logPath)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "a", "alpha")
	fs.Inject(faultfs.Fault{Op: faultfs.OpWrite})
	if err := st.Put("b", []byte("beta")); err == nil {
		t.Fatal("Put with a failing write succeeded")
	}
	if err := st.Reopen(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "c", "gamma")
	opened := make(chan *store.Store)
	go func() {
		other, err := store.OpenLocked(fs, logPath)
		if err != nil {
			t.Error(err)
		}
		opened <- other
	}()
	select {
	case <-opened:
		t.Fatal("OpenLocked did not wait for a reopened store")
	case <-time.After(50 * time.Millisecond):
	}
	st.Close()
	other := <-opened
	if other == nil {
		t.FailNow()
	}
	defer other.Close()
	wantState(t, other, map[string]string{"a": "alpha", "c": "gamma"})
}
