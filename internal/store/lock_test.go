package store

import (
	"path/filepath"
	"testing"
	"time"
)

// lockRefusingFS is a Locker whose filesystem refuses file locks, as
// flock does on some network and FUSE filesystems.
type lockRefusingFS struct{ FS }

func (lockRefusingFS) Lock(string, File) (func(), error) { return nil, errLockUnsupported }

// TestOpenLockedFallsBackWhereLocksAreRefused: where the filesystem
// refuses file locks, OpenLocked still opens, and holds the in-process
// path lock, across a Compact, until Close.
func TestOpenLockedFallsBackWhereLocksAreRefused(t *testing.T) {
	fsys := lockRefusingFS{OS}
	path := filepath.Join(t.TempDir(), "wal.cache")
	first, err := OpenLocked(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	opened := make(chan *Store)
	go func() {
		second, err := OpenLocked(fsys, path)
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
	if err := first.Put("a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := first.Compact(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-opened:
		t.Fatal("Compact let a second OpenLocked in")
	case <-time.After(50 * time.Millisecond):
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	second := <-opened
	if second == nil {
		t.FailNow()
	}
	defer second.Close()
	if v, err := second.Get("a"); err != nil || string(v) != "alpha" {
		t.Fatalf("Get(a) = %q, %v", v, err)
	}
}
