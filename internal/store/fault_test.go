package store_test

// Fault-injection suite for the store, driven through the faultfs seam:
// write failures and short writes must wedge rather than corrupt,
// fsyncgate must wedge permanently, ENOSPC must leave the log
// reopenable, mid-log bit rot must salvage the records beyond it, and
// Compact must stay durable at every crash boundary.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"syscall"
	"testing"

	"repro/internal/store"
	"repro/internal/store/faultfs"
)

const logPath = "tenants/wal.cache"

func mustOpen(t *testing.T, fs *faultfs.FS) *store.Store {
	t.Helper()
	st, err := store.OpenFS(fs, logPath)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	return st
}

func mustPut(t *testing.T, st *store.Store, key, val string) {
	t.Helper()
	if err := st.Put(key, []byte(val)); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

// dump returns the full live state of the store.
func dump(t *testing.T, st *store.Store) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, k := range st.Keys() {
		v, err := st.Get(k)
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		out[k] = string(v)
	}
	return out
}

func wantState(t *testing.T, st *store.Store, want map[string]string) {
	t.Helper()
	got := dump(t, st)
	if len(got) != len(want) {
		t.Fatalf("state mismatch: got %d keys %v, want %d keys %v", len(got), got, len(want), want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q: got %q, want %q", k, got[k], v)
		}
	}
}

// recSize is the on-disk size of one record.
func recSize(key, val string) int64 { return 9 + int64(len(key)) + int64(len(val)) + 4 }

func TestWriteFailureWedges(t *testing.T) {
	fs := faultfs.New()
	st := mustOpen(t, fs)
	mustPut(t, st, "a", "alpha")
	mustPut(t, st, "b", "beta")

	fs.Inject(faultfs.Fault{Op: faultfs.OpWrite, Path: "wal.cache"})
	if err := st.Put("c", []byte("gamma")); err == nil {
		t.Fatal("Put with injected write fault succeeded")
	}
	// Every subsequent mutation fails with ErrWedged — the writer may
	// hold partial record bytes and must never flush them.
	for name, op := range map[string]func() error{
		"Put":     func() error { return st.Put("d", []byte("delta")) },
		"Delete":  func() error { return st.Delete("a") },
		"Sync":    st.Sync,
		"Compact": st.Compact,
	} {
		if err := op(); !errors.Is(err, store.ErrWedged) {
			t.Fatalf("%s on wedged store: got %v, want ErrWedged", name, err)
		}
	}
	if st.Wedged() == nil {
		t.Fatal("Wedged() = nil on a wedged store")
	}
	// Reads keep working on the wedged store.
	if v, err := st.Get("a"); err != nil || string(v) != "alpha" {
		t.Fatalf("Get on wedged store: %q, %v", v, err)
	}
	st.Close()

	// Reopen heals: pre-fault data intact, no garbage mid-log.
	st2 := mustOpen(t, fs)
	defer st2.Close()
	if rep := st2.Report(); rep.Dirty() {
		t.Fatalf("reopen after in-buffer write failure found damage: %+v", rep)
	}
	wantState(t, st2, map[string]string{"a": "alpha", "b": "beta"})
	mustPut(t, st2, "c", "gamma") // and the store writes again
}

func TestShortWriteTornTailTruncated(t *testing.T) {
	fs := faultfs.New()
	st := mustOpen(t, fs)
	mustPut(t, st, "a", "alpha")

	// The next flush lands all but 3 bytes: a torn record on disk.
	fs.Inject(faultfs.Fault{Op: faultfs.OpWrite, Path: "wal.cache", ShortBy: 3})
	if err := st.Put("b", []byte("beta")); err == nil {
		t.Fatal("short write reported success")
	}
	if err := st.Put("x", []byte("y")); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("Put after short write: got %v, want ErrWedged", err)
	}
	st.Close()

	st2 := mustOpen(t, fs)
	defer st2.Close()
	rep := st2.Report()
	if rep.TailTruncated == 0 {
		t.Fatalf("expected torn tail to be truncated, report %+v", rep)
	}
	if rep.CorruptRegions != 0 {
		t.Fatalf("torn tail misclassified as mid-log corruption: %+v", rep)
	}
	wantState(t, st2, map[string]string{"a": "alpha"})
}

func TestFsyncFailureWedgesPermanently(t *testing.T) {
	fs := faultfs.New()
	fs.Capture(true)
	st := mustOpen(t, fs)
	mustPut(t, st, "a", "alpha")
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	mustPut(t, st, "b", "beta")

	// fsyncgate: the fsync fails and the kernel drops the dirty pages
	// while marking them clean.
	fs.Inject(faultfs.Fault{Op: faultfs.OpSync, Path: "wal.cache", DropBuffered: true})
	if err := st.Sync(); err == nil {
		t.Fatal("Sync with injected fsync fault succeeded")
	}
	// A retried Sync must NOT report success — the dropped pages can
	// never reach disk, so claiming durability would be a lie.
	if err := st.Sync(); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("Sync after failed fsync: got %v, want ErrWedged", err)
	}

	// Reads still serve the pre-fault in-memory state.
	if v, err := st.Get("b"); err != nil || string(v) != "beta" {
		t.Fatalf("Get on wedged store: %q, %v", v, err)
	}

	// Power loss now: only the synced prefix survives — the dropped
	// pages are gone, and the store was right not to claim otherwise.
	cps := fs.CrashPoints()
	st2 := mustOpen(t, faultfs.Restore(cps[len(cps)-1], nil))
	defer st2.Close()
	wantState(t, st2, map[string]string{"a": "alpha"})
}

func TestENOSPCLeavesStoreReopenable(t *testing.T) {
	fs := faultfs.New()
	st := mustOpen(t, fs)
	mustPut(t, st, "a", "alpha")
	mustPut(t, st, "b", "beta")

	fs.SetSpace(4) // the next record cannot fit
	if err := st.Put("c", bytes.Repeat([]byte("x"), 64)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put on full disk: got %v, want ENOSPC", err)
	}
	if err := st.Put("d", []byte("delta")); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("Put after ENOSPC: got %v, want ErrWedged", err)
	}
	// Pre-fault data still readable in place...
	if v, err := st.Get("a"); err != nil || string(v) != "alpha" {
		t.Fatalf("Get on wedged store: %q, %v", v, err)
	}
	st.Close()

	// ...and the store reopens cleanly on the still-full disk (the torn
	// record is truncated, which frees its bytes rather than needing any).
	st2 := mustOpen(t, fs)
	wantState(t, st2, map[string]string{"a": "alpha", "b": "beta"})
	// Still no room to grow.
	if err := st2.Put("c", bytes.Repeat([]byte("x"), 64)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put on full disk after reopen: got %v, want ENOSPC", err)
	}
	st2.Close()

	// Space frees; the next incarnation writes again.
	fs.AddSpace(1 << 20)
	st3 := mustOpen(t, fs)
	defer st3.Close()
	wantState(t, st3, map[string]string{"a": "alpha", "b": "beta"})
	mustPut(t, st3, "c", "gamma")
}

// TestReopenRecoversWedgedStore: Reopen recovers a store wedged by
// ENOSPC in place. It refuses while the log cannot be opened (the store
// stays wedged and readable), then truncates the torn record, clears the
// wedge and accepts writes, and the log replays to exactly the records
// written before the fault and after the Reopen.
func TestReopenRecoversWedgedStore(t *testing.T) {
	fs := faultfs.New()
	st := mustOpen(t, fs)
	mustPut(t, st, "a", "alpha")
	mustPut(t, st, "b", "beta")
	fs.SetSpace(4)
	if err := st.Put("c", bytes.Repeat([]byte("x"), 64)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put on full disk: got %v, want ENOSPC", err)
	}
	if err := st.Put("d", []byte("delta")); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("Put after ENOSPC: got %v, want ErrWedged", err)
	}

	fs.Inject(faultfs.Fault{Op: faultfs.OpOpen, Path: "wal.cache"})
	if err := st.Reopen(); err == nil {
		t.Fatal("Reopen succeeded although the log could not be opened")
	}
	if err := st.Wedged(); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("after a failed Reopen Wedged() = %v, want ErrWedged", err)
	}
	wantState(t, st, map[string]string{"a": "alpha", "b": "beta"})

	fs.SetSpace(-1)
	if err := st.Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if err := st.Wedged(); err != nil {
		t.Fatalf("Wedged() = %v after Reopen", err)
	}
	if rep := st.Report(); rep.TailTruncated != 4 || rep.Records != 2 {
		t.Errorf("Reopen report %+v, want 2 records and the 4-byte torn record truncated", rep)
	}
	wantState(t, st, map[string]string{"a": "alpha", "b": "beta"})
	mustPut(t, st, "c", "gamma")
	if err := st.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, fs)
	defer st2.Close()
	if rep := st2.Report(); rep.Dirty() {
		t.Errorf("the log written after Reopen needed repair: %+v", rep)
	}
	wantState(t, st2, map[string]string{"b": "beta", "c": "gamma"})
}

func TestMidLogCorruptionSalvagesTail(t *testing.T) {
	fs := faultfs.New()
	st := mustOpen(t, fs)
	mustPut(t, st, "key1", "value-one")
	mustPut(t, st, "key2", "value-two")
	mustPut(t, st, "key3", "value-three")
	st.Close()

	// Flip a bit inside record 2's value: its CRC fails, but record 3
	// must be salvaged rather than discarded with the tail.
	off2 := recSize("key1", "value-one")
	if err := fs.FlipBit(logPath, off2+9+int64(len("key2")), 2); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}

	st2 := mustOpen(t, fs)
	rep := st2.Report()
	if rep.CorruptRegions != 1 {
		t.Fatalf("CorruptRegions = %d, want 1 (report %+v)", rep.CorruptRegions, rep)
	}
	if rep.SalvagedRecords < 1 {
		t.Fatalf("SalvagedRecords = %d, want >= 1", rep.SalvagedRecords)
	}
	if rep.CorruptSkipped != recSize("key2", "value-two") {
		t.Fatalf("CorruptSkipped = %d, want %d", rep.CorruptSkipped, recSize("key2", "value-two"))
	}
	if !rep.Dirty() {
		t.Fatal("report not Dirty after salvage")
	}
	wantState(t, st2, map[string]string{"key1": "value-one", "key3": "value-three"})

	// The store keeps working, and Compact rewrites the damage away.
	mustPut(t, st2, "key4", "value-four")
	if err := st2.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st2.Close()

	st3 := mustOpen(t, fs)
	defer st3.Close()
	if rep := st3.Report(); rep.Dirty() {
		t.Fatalf("damage survived Compact: %+v", rep)
	}
	wantState(t, st3, map[string]string{
		"key1": "value-one", "key3": "value-three", "key4": "value-four",
	})
}

func TestCompactDurableAtEveryCrashPoint(t *testing.T) {
	fs := faultfs.New()
	st := mustOpen(t, fs)
	want := map[string]string{}
	for i := 0; i < 8; i++ {
		k, v := fmt.Sprintf("key%d", i), fmt.Sprintf("value%d", i)
		mustPut(t, st, k, v)
		want[k] = v
	}
	if err := st.Delete("key3"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	delete(want, "key3")
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// Every crash boundary inside Compact must recover the full synced
	// state: the rewrite is fsynced before the rename and the rename is
	// made durable by a directory fsync.
	fs.Capture(true)
	if err := st.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	fs.Capture(false)
	st.Close()

	cps := fs.CrashPoints()
	if len(cps) == 0 {
		t.Fatal("no crash points captured during Compact")
	}
	for _, cp := range cps {
		rec := mustOpen(t, faultfs.Restore(cp, nil))
		if rep := rec.Report(); rep.Dirty() {
			t.Fatalf("crash at seq %d: corrupt open %+v", cp.Seq, rep)
		}
		wantState(t, rec, want)
		rec.Close()
	}
}

func TestCompactPreRenameFailureDoesNotWedge(t *testing.T) {
	fs := faultfs.New()
	st := mustOpen(t, fs)
	defer st.Close()
	mustPut(t, st, "a", "alpha")

	// The temp-file fsync fails: Compact aborts, the old log is
	// untouched, and the store keeps serving and writing.
	fs.Inject(faultfs.Fault{Op: faultfs.OpSync, Path: ".compact"})
	if err := st.Compact(); err == nil {
		t.Fatal("Compact with failing temp fsync succeeded")
	}
	if st.Wedged() != nil {
		t.Fatalf("pre-rename Compact failure wedged the store: %v", st.Wedged())
	}
	mustPut(t, st, "b", "beta")
	wantState(t, st, map[string]string{"a": "alpha", "b": "beta"})
	if _, err := fs.ReadFile(logPath + ".compact"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("aborted compaction left its temp file behind: %v", err)
	}
}

func TestTailGarbageSurfacedInReport(t *testing.T) {
	fs := faultfs.New()
	st := mustOpen(t, fs)
	mustPut(t, st, "a", "alpha")
	mustPut(t, st, "b", "beta")
	st.Close()

	// Append half a record header by hand: the torn tail of a crashed
	// write.
	f, err := fs.OpenFile(logPath, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	if _, err := f.Write([]byte{1, 4, 0}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	f.Close()

	st2 := mustOpen(t, fs)
	defer st2.Close()
	rep := st2.Report()
	if rep.TailTruncated != 3 {
		t.Fatalf("TailTruncated = %d, want 3 (report %+v)", rep.TailTruncated, rep)
	}
	if rep.Records != 2 {
		t.Fatalf("Records = %d, want 2", rep.Records)
	}
	wantState(t, st2, map[string]string{"a": "alpha", "b": "beta"})
	// The truncation physically removed the garbage: the next open is
	// clean.
	st2.Close()
	st3 := mustOpen(t, fs)
	defer st3.Close()
	if rep := st3.Report(); rep.Dirty() {
		t.Fatalf("second open still dirty: %+v", rep)
	}
}
