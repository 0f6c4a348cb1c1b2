package store

import (
	"errors"
	"path/filepath"
	"sync"
)

// A Locker is an FS whose files take exclusive advisory locks: the OS
// filesystem on linux and darwin (flock), and faultfs. OpenLocked locks
// a log through it; on an FS that is not a Locker (the OS filesystem
// elsewhere, or a wrapper such as a tracing FS) it falls back to a lock
// on the log's path that holds only within this process.
type Locker interface {
	// Lock blocks until the caller holds an exclusive lock on f, a
	// handle of name, and returns its release. The lock belongs to the
	// file, not to the name: if name no longer names f's file once the
	// lock is held (a Compact renamed a new log over it), Lock releases
	// it and returns ErrLockMoved.
	Lock(name string, f File) (unlock func(), err error)
}

// ErrLockMoved is Lock's report that the locked file is no longer the
// one its name names; OpenLocked opens the name again.
var ErrLockMoved = errors.New("store: locked file was replaced at its path")

// errLockUnsupported is Lock's report that the filesystem refuses file
// locks; OpenLocked falls back to the in-process path lock rather than
// fail every persist.
var errLockUnsupported = errors.New("store: file locks unsupported")

// fileLock is the lock a store from OpenLocked holds on its log.
type fileLock struct {
	unlock func()
	// perFile: held on the file (a Locker), not on its path, so a
	// Compact must lock the rewrite before renaming it over the log.
	perFile bool
}

// release gives the lock up; a nil lock is a no-op.
func (l *fileLock) release() {
	if l != nil {
		l.unlock()
	}
}

func lockFile(fsys FS, name string, f File) (*fileLock, error) {
	if l, ok := fsys.(Locker); ok {
		unlock, err := l.Lock(name, f)
		if err == nil {
			return &fileLock{unlock: unlock, perFile: true}, nil
		}
		if !errors.Is(err, errLockUnsupported) {
			return nil, err
		}
	}
	return &fileLock{unlock: lockPath(name)}, nil
}

// pathLocks are the in-process fallback: one mutex per locked path,
// dropped once nobody holds or waits for it.
var pathLocks struct {
	sync.Mutex
	m map[string]*pathLock
}

type pathLock struct {
	mu   sync.Mutex
	refs int // holders and waiters, under pathLocks
}

func lockPath(name string) (unlock func()) {
	name = filepath.Clean(name)
	pathLocks.Lock()
	l := pathLocks.m[name]
	if l == nil {
		if pathLocks.m == nil {
			pathLocks.m = make(map[string]*pathLock)
		}
		l = &pathLock{}
		pathLocks.m[name] = l
	}
	l.refs++
	pathLocks.Unlock()
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		pathLocks.Lock()
		if l.refs--; l.refs == 0 {
			delete(pathLocks.m, name)
		}
		pathLocks.Unlock()
	}
}
