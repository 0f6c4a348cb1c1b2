package store

import (
	"io"
	"os"
)

// FS is the filesystem seam every store (and the registry's persistence
// path) runs on. The default, OS, passes straight through to package os
// — one interface dispatch per call, nothing else — so production pays
// no cost for the seam. Tests inject faultfs.FS to script write
// failures, fsync loss, ENOSPC, bit flips, and power-fail crash points
// against the exact same code paths production runs.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics for the flags the
	// store uses: os.O_CREATE, os.O_EXCL, os.O_TRUNC, os.O_RDWR.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string, perm os.FileMode) error
	// Stat reports file metadata (existence checks, temp-sweep ages).
	Stat(name string) (os.FileInfo, error)
	// ReadDir lists dir (the registry's orphaned-temp sweep).
	ReadDir(dir string) ([]os.DirEntry, error)
	// SyncDir fsyncs the directory itself, making renames and newly
	// created names durable. On OS crash, a rename without a following
	// SyncDir may roll back to the old name — or, for a fresh file, to
	// no file at all.
	SyncDir(dir string) error
}

// File is the per-handle surface the store needs: sequential writes
// behind a bufio.Writer, random reads for Get, fsync for durability
// barriers, and truncation for torn-tail recovery.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// OS is the production FS: a zero-cost passthrough to package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error        { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                    { return os.Remove(name) }
func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (osFS) Stat(name string) (os.FileInfo, error)       { return os.Stat(name) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error)   { return os.ReadDir(dir) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
