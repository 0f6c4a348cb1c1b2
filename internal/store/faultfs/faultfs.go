// Package faultfs is an in-memory implementation of store.FS that
// injects scripted storage faults and captures power-fail crash points.
//
// The model tracks two copies of every file: the visible content (what
// reads and a surviving process observe — page cache semantics) and the
// durable content (what an OS crash or power loss preserves — whatever
// the last successful Sync persisted). Namespace bindings (name → file)
// are likewise split: creating or renaming a file updates the visible
// binding immediately, but the binding only becomes durable when the
// containing directory is fsynced (SyncDir), exactly the POSIX behavior
// the store's crash-consistency depends on.
//
// Fault schedules are deterministic scripts: each Fault names an
// operation class, an optional path substring, and how many matching
// operations to let through before firing. Faults can fail outright,
// short-write, exhaust an ENOSPC byte budget, or emulate fsyncgate —
// a failed fsync that drops the buffered data while marking the pages
// clean, so no later fsync can ever persist them.
//
// With capture enabled, the FS snapshots the durable state (plus the
// not-yet-synced visible suffix of each file) after every mutating
// operation. Restore rebuilds a filesystem as a power loss at that
// boundary would leave it, optionally tearing the unsynced suffix at an
// arbitrary byte — the substrate of the store's powerfail property test.
package faultfs

import (
	"bytes"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/store"
)

// Op classifies filesystem operations for fault matching.
type Op string

const (
	OpOpen     Op = "open"
	OpWrite    Op = "write"
	OpRead     Op = "read"
	OpSync     Op = "sync"
	OpSyncDir  Op = "syncdir"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpTruncate Op = "truncate"
)

// ErrInjected is the default error returned by a firing fault.
var ErrInjected = fmt.Errorf("faultfs: injected fault: %w", syscall.EIO)

// Fault is one entry in a fault schedule.
type Fault struct {
	// Op selects the operation class the fault applies to.
	Op Op
	// Path, when non-empty, restricts the fault to operations whose
	// path contains it as a substring.
	Path string
	// After is how many matching operations complete normally before
	// the fault fires: 0 fires on the first match.
	After int
	// Err is the error to return; nil means ErrInjected.
	Err error
	// ShortBy, for OpWrite, makes the write land len(p)-ShortBy bytes
	// before failing — a torn write with real partial bytes on disk.
	ShortBy int
	// DropBuffered, for OpSync, emulates fsyncgate: the fsync fails AND
	// the kernel marks the dirty pages clean, so the unsynced data can
	// never be persisted by any later fsync on this file.
	DropBuffered bool
	// Repeat keeps the fault armed after it fires instead of spending it.
	Repeat bool

	hits  int
	spent bool
}

type inode struct {
	data    []byte // visible content (page cache view)
	durable []byte // content a power loss preserves
	// gated marks a fsyncgate casualty: pages clean but not durable;
	// durable is frozen until the file is truncated or recreated.
	gated bool
	mtime time.Time
	// lock is the file's advisory lock (Lock); it moves with the file
	// on rename, as flock's does.
	lock sync.Mutex
}

// CrashFile is the per-file component of a CrashPoint.
type CrashFile struct {
	// Durable is the content a power loss at this point preserves.
	Durable []byte
	// Pending is the visible suffix beyond Durable (data written but
	// not yet synced) when the visible content extends the durable
	// content append-only; nil otherwise. A crash may preserve any
	// prefix of it.
	Pending []byte
}

// CrashPoint is the durable filesystem state captured after one
// mutating operation.
type CrashPoint struct {
	// Seq is the mutating-operation sequence number this point was
	// captured after; compare with FS.Seq to correlate with workload
	// progress.
	Seq int
	// Files maps each durably-bound name to its surviving content.
	Files map[string]CrashFile
}

// FS is the fault-injecting in-memory filesystem. The zero value is not
// usable; call New.
type FS struct {
	mu sync.Mutex
	// visible and durable name → inode bindings.
	files   map[string]*inode
	durable map[string]*inode
	dirs    map[string]bool
	faults  []*Fault
	// space is the remaining byte budget for file growth; -1 = unlimited.
	space   int64
	seq     int
	capture bool
	crashes []CrashPoint
}

// New returns an empty filesystem with no faults and unlimited space.
func New() *FS {
	return &FS{
		files:   make(map[string]*inode),
		durable: make(map[string]*inode),
		dirs:    map[string]bool{".": true, "/": true},
		space:   -1,
	}
}

// Inject appends a fault to the schedule.
func (f *FS) Inject(fault Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = append(f.faults, &fault)
}

// ClearFaults disarms every scheduled fault.
func (f *FS) ClearFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = nil
}

// SetSpace sets the remaining byte budget for file growth; writes that
// would exceed it land partially and fail with ENOSPC. Negative means
// unlimited.
func (f *FS) SetSpace(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.space = n
}

// AddSpace grows the remaining byte budget (freeing space after an
// ENOSPC episode). No-op when space is unlimited.
func (f *FS) AddSpace(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.space >= 0 {
		f.space += n
	}
}

// Capture enables or disables crash-point capture.
func (f *FS) Capture(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.capture = on
}

// Seq returns the number of mutating operations applied so far.
func (f *FS) Seq() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// CrashPoints returns the crash points captured so far.
func (f *FS) CrashPoints() []CrashPoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]CrashPoint, len(f.crashes))
	copy(out, f.crashes)
	return out
}

// FlipBit flips one bit of a file's content in place — both the visible
// and the durable copy, modeling corruption of bytes already on media.
func (f *FS) FlipBit(name string, off int64, bit uint) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.files[filepath.Clean(name)]
	if !ok {
		return &os.PathError{Op: "flipbit", Path: name, Err: os.ErrNotExist}
	}
	if off < 0 || off >= int64(len(ino.data)) {
		return fmt.Errorf("faultfs: flipbit offset %d out of range (size %d)", off, len(ino.data))
	}
	ino.data[off] ^= 1 << (bit % 8)
	if off < int64(len(ino.durable)) {
		ino.durable[off] ^= 1 << (bit % 8)
	}
	return nil
}

// ReadFile returns a copy of the visible content of name.
func (f *FS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.files[filepath.Clean(name)]
	if !ok {
		return nil, &os.PathError{Op: "read", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), ino.data...), nil
}

// Restore builds the filesystem a power loss at cp would leave behind:
// only durably-bound names exist, each holding its durable content plus
// the first torn[name] bytes of its pending (unsynced) suffix. The
// returned FS has no faults, unlimited space, and capture off.
func Restore(cp CrashPoint, torn map[string]int) *FS {
	out := New()
	for name, cf := range cp.Files {
		content := append([]byte(nil), cf.Durable...)
		if n := torn[name]; n > 0 && len(cf.Pending) > 0 {
			if n > len(cf.Pending) {
				n = len(cf.Pending)
			}
			content = append(content, cf.Pending[:n]...)
		}
		ino := &inode{data: content, durable: append([]byte(nil), content...)}
		out.files[name] = ino
		out.durable[name] = ino
		for dir := filepath.Dir(name); ; dir = filepath.Dir(dir) {
			out.dirs[dir] = true
			if dir == "." || dir == "/" || out.dirs[filepath.Dir(dir)] {
				break
			}
		}
	}
	return out
}

// fire returns the scheduled fault matching (op, name) that is due to
// fire now, or nil. Callers hold f.mu.
func (f *FS) fire(op Op, name string) *Fault {
	for _, ft := range f.faults {
		if ft.Op != op || ft.spent {
			continue
		}
		if ft.Path != "" && !strings.Contains(name, ft.Path) {
			continue
		}
		if ft.hits < ft.After {
			ft.hits++
			continue
		}
		if !ft.Repeat {
			ft.spent = true
		}
		return ft
	}
	return nil
}

func faultErr(ft *Fault) error {
	if ft.Err != nil {
		return ft.Err
	}
	return ErrInjected
}

// mutated records a mutating operation and, when capture is on,
// snapshots the durable state. Callers hold f.mu.
func (f *FS) mutated() {
	f.seq++
	if !f.capture {
		return
	}
	cp := CrashPoint{Seq: f.seq, Files: make(map[string]CrashFile, len(f.durable))}
	for name, ino := range f.durable {
		cf := CrashFile{Durable: append([]byte(nil), ino.durable...)}
		if !ino.gated && len(ino.data) > len(ino.durable) && bytes.HasPrefix(ino.data, ino.durable) {
			cf.Pending = append([]byte(nil), ino.data[len(ino.durable):]...)
		}
		cp.Files[name] = cf
	}
	f.crashes = append(f.crashes, cp)
}

// OpenFile implements store.FS.
func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if ft := f.fire(OpOpen, name); ft != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: faultErr(ft)}
	}
	ino, exists := f.files[name]
	switch {
	case exists && flag&os.O_EXCL != 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrExist}
	case !exists && flag&os.O_CREATE == 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	case !exists:
		ino = &inode{mtime: time.Now()}
		f.files[name] = ino
		// A freshly created name is not durable until its directory is
		// fsynced; the inode content becomes durable via Sync as usual.
		f.mutated()
	case flag&os.O_TRUNC != 0:
		f.reclaim(int64(len(ino.data)))
		ino.data = nil
		ino.durable = nil
		ino.gated = false
		ino.mtime = time.Now()
		f.mutated()
	}
	return &file{fs: f, name: name, ino: ino}, nil
}

// reclaim returns freed bytes to the space budget. Callers hold f.mu.
func (f *FS) reclaim(n int64) {
	if f.space >= 0 {
		f.space += n
	}
}

// Rename implements store.FS. The visible binding moves immediately;
// the move is durable only after SyncDir on the containing directory.
func (f *FS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	if ft := f.fire(OpRename, oldpath); ft != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: faultErr(ft)}
	}
	ino, ok := f.files[oldpath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: os.ErrNotExist}
	}
	if victim, ok := f.files[newpath]; ok && victim != ino {
		f.reclaim(int64(len(victim.data)))
	}
	delete(f.files, oldpath)
	f.files[newpath] = ino
	f.mutated()
	return nil
}

// Remove implements store.FS.
func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if ft := f.fire(OpRemove, name); ft != nil {
		return &os.PathError{Op: "remove", Path: name, Err: faultErr(ft)}
	}
	ino, ok := f.files[name]
	if !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	f.reclaim(int64(len(ino.data)))
	delete(f.files, name)
	f.mutated()
	return nil
}

// MkdirAll implements store.FS. Directories are durable immediately:
// losing a directory is not a failure mode the store defends against.
func (f *FS) MkdirAll(dir string, perm os.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = filepath.Clean(dir)
	for {
		f.dirs[dir] = true
		parent := filepath.Dir(dir)
		if parent == dir || f.dirs[parent] {
			break
		}
		dir = parent
	}
	return nil
}

// Stat implements store.FS.
func (f *FS) Stat(name string) (os.FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if ino, ok := f.files[name]; ok {
		return fileInfo{name: filepath.Base(name), size: int64(len(ino.data)), mtime: ino.mtime}, nil
	}
	if f.dirs[name] {
		return fileInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
}

// ReadDir implements store.FS.
func (f *FS) ReadDir(dir string) ([]os.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = filepath.Clean(dir)
	if !f.dirs[dir] {
		return nil, &os.PathError{Op: "readdir", Path: dir, Err: os.ErrNotExist}
	}
	var out []os.DirEntry
	for name, ino := range f.files {
		if filepath.Dir(name) == dir {
			out = append(out, dirEntry{fileInfo{name: filepath.Base(name), size: int64(len(ino.data)), mtime: ino.mtime}})
		}
	}
	for name := range f.dirs {
		if name != dir && filepath.Dir(name) == dir {
			out = append(out, dirEntry{fileInfo{name: filepath.Base(name), dir: true}})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// SyncDir implements store.FS: the directory's current visible bindings
// become its durable bindings.
func (f *FS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = filepath.Clean(dir)
	if ft := f.fire(OpSyncDir, dir); ft != nil {
		return &os.PathError{Op: "syncdir", Path: dir, Err: faultErr(ft)}
	}
	for name := range f.durable {
		if filepath.Dir(name) == dir {
			if _, visible := f.files[name]; !visible || f.files[name] != f.durable[name] {
				delete(f.durable, name)
			}
		}
	}
	for name, ino := range f.files {
		if filepath.Dir(name) == dir {
			f.durable[name] = ino
		}
	}
	f.mutated()
	return nil
}

// Lock implements store.Locker: an exclusive lock on the handle's file,
// held until the returned release.
func (f *FS) Lock(name string, sf store.File) (func(), error) {
	h, ok := sf.(*file)
	if !ok {
		return nil, fmt.Errorf("faultfs: cannot lock a %T", sf)
	}
	h.ino.lock.Lock()
	f.mu.Lock()
	current := f.files[filepath.Clean(name)] == h.ino
	f.mu.Unlock()
	if !current {
		h.ino.lock.Unlock()
		return nil, store.ErrLockMoved
	}
	return h.ino.lock.Unlock, nil
}

type file struct {
	fs     *FS
	name   string
	ino    *inode
	pos    int64
	closed bool
}

func (h *file) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	n := len(p)
	var injected error
	if ft := h.fs.fire(OpWrite, h.name); ft != nil {
		injected = faultErr(ft)
		if ft.ShortBy > 0 {
			n -= ft.ShortBy
			if n < 0 {
				n = 0
			}
		} else {
			n = 0
		}
	}
	// ENOSPC budget: growth beyond the current size consumes space;
	// what does not fit is cut off.
	if h.fs.space >= 0 {
		grow := h.pos + int64(n) - int64(len(h.ino.data))
		if grow > h.fs.space {
			n -= int(grow - h.fs.space)
			if n < 0 {
				n = 0
			}
			if injected == nil {
				injected = syscall.ENOSPC
			}
		}
	}
	if n > 0 {
		end := h.pos + int64(n)
		if grow := end - int64(len(h.ino.data)); grow > 0 {
			if h.fs.space >= 0 {
				h.fs.space -= grow
			}
			h.ino.data = append(h.ino.data, make([]byte, grow)...)
		}
		copy(h.ino.data[h.pos:end], p[:n])
		h.pos = end
		h.ino.mtime = time.Now()
		h.fs.mutated()
	}
	if injected != nil {
		return n, &os.PathError{Op: "write", Path: h.name, Err: injected}
	}
	return n, nil
}

func (h *file) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	if ft := h.fs.fire(OpRead, h.name); ft != nil {
		return 0, &os.PathError{Op: "read", Path: h.name, Err: faultErr(ft)}
	}
	if off >= int64(len(h.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *file) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	if ft := h.fs.fire(OpSync, h.name); ft != nil {
		if ft.DropBuffered {
			// fsyncgate: the kernel reports the pages clean after the
			// failed writeback; the unsynced data can never become
			// durable through this file again.
			h.ino.gated = true
			h.fs.mutated()
		}
		return &os.PathError{Op: "sync", Path: h.name, Err: faultErr(ft)}
	}
	if !h.ino.gated {
		h.ino.durable = append([]byte(nil), h.ino.data...)
		h.fs.mutated()
	}
	return nil
}

func (h *file) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	if ft := h.fs.fire(OpTruncate, h.name); ft != nil {
		return &os.PathError{Op: "truncate", Path: h.name, Err: faultErr(ft)}
	}
	switch {
	case size < int64(len(h.ino.data)):
		h.fs.reclaim(int64(len(h.ino.data)) - size)
		h.ino.data = h.ino.data[:size]
		if size < int64(len(h.ino.durable)) {
			h.ino.durable = append([]byte(nil), h.ino.data...)
		}
	case size > int64(len(h.ino.data)):
		h.ino.data = append(h.ino.data, make([]byte, size-int64(len(h.ino.data)))...)
	}
	h.ino.mtime = time.Now()
	h.fs.mutated()
	return nil
}

func (h *file) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	switch whence {
	case 0:
		h.pos = offset
	case 1:
		h.pos += offset
	case 2:
		h.pos = int64(len(h.ino.data)) + offset
	default:
		return 0, fmt.Errorf("faultfs: bad whence %d", whence)
	}
	if h.pos < 0 {
		h.pos = 0
		return 0, fmt.Errorf("faultfs: negative seek")
	}
	return h.pos, nil
}

func (h *file) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	h.closed = true
	return nil
}

type fileInfo struct {
	name  string
	size  int64
	mtime time.Time
	dir   bool
}

func (fi fileInfo) Name() string { return fi.name }
func (fi fileInfo) Size() int64  { return fi.size }
func (fi fileInfo) Mode() iofs.FileMode {
	if fi.dir {
		return iofs.ModeDir | 0o755
	}
	return 0o644
}
func (fi fileInfo) ModTime() time.Time { return fi.mtime }
func (fi fileInfo) IsDir() bool        { return fi.dir }
func (fi fileInfo) Sys() any           { return nil }

type dirEntry struct{ fi fileInfo }

func (d dirEntry) Name() string                 { return d.fi.name }
func (d dirEntry) IsDir() bool                  { return d.fi.dir }
func (d dirEntry) Type() iofs.FileMode          { return d.fi.Mode().Type() }
func (d dirEntry) Info() (iofs.FileInfo, error) { return d.fi, nil }
