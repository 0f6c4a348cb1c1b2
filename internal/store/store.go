// Package store provides the persistent local cache storage that the paper
// delegates to Python's DiskCache: a crash-tolerant, append-only-log
// key/value store with an in-memory index.
//
// Records are length-prefixed and CRC-checked. Open repairs whatever a
// crash or bit rot left behind — a torn final record is truncated, and a
// corrupt region mid-log is skipped to the next CRC-valid record boundary
// so the data beyond it is salvaged rather than discarded — and reports
// what it did through OpenReport. Deletes are tombstone records, so the
// log replays to the exact live set. Commit appends a Batch of puts and
// deletes framed by a begin and a commit record, and replay applies a
// batch only once its commit is intact, so a crash leaves all of a batch
// or none of it. Compact rewrites the log to reclaim space from
// overwritten and deleted entries, fsyncing the rewrite and the
// directory around the swap so a crash can never leave a truncated log
// where a good one stood.
//
// Write and fsync failures wedge the store: every subsequent mutation
// returns ErrWedged until the store is reopened (Reopen does so in
// place). A failed write may leave partial record bytes in the write
// buffer or the file; appending after them would bury garbage mid-log,
// and a failed fsync may have already dropped the very pages it was
// asked to persist (the fsyncgate failure mode), so retrying either in
// place would turn one lost write into silent corruption. Reads keep
// working on a wedged store.
//
// All I/O flows through the FS seam (fs.go); faultfs injects scripted
// failures and power-fail crash points through the same interface the
// production os-backed implementation serves.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("store: key not found")

// ErrWedged marks a store poisoned by an earlier write or fsync failure:
// every mutation fails with an error wrapping it until the store is
// reopened (which truncates any torn tail and resumes from the last
// durable state). Reads still work.
var ErrWedged = errors.New("store: wedged by an earlier write failure (reopen to recover)")

const (
	opPut    byte = 1
	opDelete byte = 2
	// A batch's frames: records with an empty key and a 4-byte value,
	// the number of records between the two frames.
	opBegin  byte = 3
	opCommit byte = 4

	maxKeyLen = 1 << 20
	maxValLen = 1 << 30
)

// OpenReport describes what Open found and repaired while replaying the
// log. A report with Dirty() true means the log had been damaged — by a
// torn write at crash, or by corruption of bytes already on disk — and
// Open recovered everything recoverable.
type OpenReport struct {
	// Records is the number of intact records replayed (puts and
	// delete tombstones).
	Records int
	// TailTruncated is the number of bytes dropped from the end of the
	// log because no intact record boundary followed them — the torn
	// tail of a crashed write.
	TailTruncated int64
	// CorruptRegions counts mid-log corruption regions the salvage scan
	// skipped; CorruptSkipped is the bytes they spanned. Unlike a torn
	// tail these are not truncated (records beyond them are live);
	// Compact rewrites them away.
	CorruptRegions int
	CorruptSkipped int64
	// SalvagedRecords is the number of intact records recovered beyond
	// the first corrupt region — data a truncate-at-first-error policy
	// would have discarded.
	SalvagedRecords int
}

// Dirty reports whether Open had to repair anything.
func (r OpenReport) Dirty() bool { return r.TailTruncated > 0 || r.CorruptRegions > 0 }

// Store is a disk-backed key/value store. It is safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	path string
	fs   FS
	f    File
	// w buffers Put and Delete records; made on first use, since a
	// store that only commits batches never needs it.
	w *bufio.Writer
	// lock is the exclusive lock OpenLocked took on the log, nil for a
	// store opened by Open.
	lock *fileLock
	// index maps live keys to their value offsets in the log.
	index  map[string]recordRef
	size   int64
	report OpenReport
	// wedged is set by the first write/fsync failure; see ErrWedged.
	wedged error
	// dirSynced records that the log's directory entry has been fsynced
	// (Sync does it once): before that, an OS crash may forget a freshly
	// created log file entirely.
	dirSynced bool
}

type recordRef struct {
	off    int64 // offset of the value bytes within the log
	length int32
}

// Open opens or creates the store at path, replaying the existing log.
func Open(path string) (*Store, error) { return OpenFS(OS, path) }

// OpenFS is Open on an injected filesystem — the seam the fault-injection
// suites use. Production callers use Open (the os passthrough).
func OpenFS(fsys FS, path string) (*Store, error) { return open(fsys, path, false) }

// OpenLocked is OpenFS for a log that several stores may write: it takes
// an exclusive lock on the log (see Locker) before replaying it and holds
// it until Close, so a second OpenLocked of the same log waits. Replay
// truncates a torn tail in place, so a reader takes the lock too.
func OpenLocked(fsys FS, path string) (*Store, error) { return open(fsys, path, true) }

func open(fsys FS, path string, locked bool) (*Store, error) {
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating directory: %w", err)
	}
	for try := 0; ; try++ {
		f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: opening %s: %w", path, err)
		}
		s := &Store{path: path, fs: fsys, f: f, index: make(map[string]recordRef)}
		if locked {
			s.lock, err = lockFile(fsys, path, f)
			if errors.Is(err, ErrLockMoved) && try < maxLockTries {
				// A Compact renamed a new log over path while we
				// waited: lock that one instead.
				f.Close()
				continue
			}
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("store: locking %s: %w", path, err)
			}
		}
		if err := s.replay(); err != nil {
			s.closeFile()
			return nil, err
		}
		if _, err := f.Seek(s.size, io.SeekStart); err != nil {
			s.closeFile()
			return nil, fmt.Errorf("store: seeking to log end: %w", err)
		}
		return s, nil
	}
}

// maxLockTries bounds how often OpenLocked follows a log that Compact
// renamed over its path while it waited for the lock.
const maxLockTries = 100

// closeFile releases the lock, if s holds one, and closes the log.
func (s *Store) closeFile() error {
	s.lock.release()
	s.lock = nil
	return s.f.Close()
}

// writer returns the buffered writer Put and Delete append through,
// making it on first use.
func (s *Store) writer() *bufio.Writer {
	if s.w == nil {
		s.w = bufio.NewWriter(s.f)
	}
	return s.w
}

// flush writes out what Put or Delete left buffered.
func (s *Store) flush() error {
	if s.w == nil {
		return nil
	}
	return s.w.Flush()
}

// Reopen recovers s in place, as closing it and opening its path again
// would: the log is replayed, a torn tail truncated and the wedge
// cleared, so every holder of s sees the recovered store. Every
// mutation flushes before it returns, so the only buffered bytes Reopen
// drops are a wedged write's partial record. If the log cannot be
// opened, s is left as it was and the error returned; a store from
// OpenLocked gives its lock up first, and keeps it only if the reopen
// succeeds.
func (s *Store) Reopen() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	locked := s.lock != nil
	if locked {
		s.lock.release()
		s.lock = nil
	}
	fresh, err := open(s.fs, s.path, locked)
	if err != nil {
		return err
	}
	s.f.Close()
	s.f, s.w, s.index, s.lock = fresh.f, fresh.w, fresh.index, fresh.lock
	s.size, s.report = fresh.size, fresh.report
	s.wedged, s.dirSynced = nil, false
	return nil
}

// Report describes what the last Open or Reopen found and repaired.
func (s *Store) Report() OpenReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.report
}

// Wedged returns the error that wedged the store, or nil.
func (s *Store) Wedged() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wedged
}

// wedge poisons the store after a write/fsync failure. Callers hold mu.
func (s *Store) wedge(cause error) {
	if s.wedged == nil {
		s.wedged = fmt.Errorf("%w: %v", ErrWedged, cause)
	}
}

// record layout:
//
//	op(1) keyLen(4) valLen(4) key val crc32(4 over everything before it)
//
// A batch is a begin frame, its records and a commit frame. Replay holds
// a batch's records back until its commit frame and drops a batch that
// has none: the torn tail of a crashed Commit, truncated like a torn
// record. After a damaged region the records up to the next frame are
// held back the same way: a commit frame shows they were the rest of a
// batch whose begin was lost, and they are dropped; a begin frame or the
// end of the log shows they were plain records, and they are applied.
func (s *Store) replay() error {
	size, err := s.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: sizing log: %w", err)
	}
	var (
		off       int64
		salvaging bool
		held      []heldRecord      // records waiting for a frame to decide them
		batchAt   int64        = -1 // offset of the open batch's begin frame
		// afterDamage: held records follow a damaged region, not a
		// begin frame.
		afterDamage bool
	)
	apply := func() {
		for _, h := range held {
			s.applyRecord(h.op, h.key, recordRef{off: h.valOff, length: h.valLen})
			s.report.Records++
			if salvaging {
				s.report.SalvagedRecords++
			}
		}
		held = held[:0]
	}
	drop := func() { held = held[:0] }
	r := bufio.NewReader(io.NewSectionReader(s.f, 0, size))
	var body []byte // record scratch, grown to the largest record and reused
	for off < size {
		rec, key, val, err := readRecord(r, &body)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Damaged bytes at off. Salvage-scan for the next CRC-valid
			// record boundary: bit rot mid-log must not discard the
			// intact records beyond it. If nothing intact follows, this
			// is a torn tail — truncate to the last good record, or to
			// the begin frame of the batch it tore.
			next := s.scanForRecord(off+1, size)
			if next < 0 {
				if batchAt >= 0 {
					drop()
					off, batchAt = batchAt, -1
				}
				if terr := s.f.Truncate(off); terr != nil {
					return fmt.Errorf("store: truncating corrupt tail: %w", terr)
				}
				s.report.TailTruncated = size - off
				size = off
				break
			}
			drop()
			batchAt, afterDamage = -1, true
			s.report.CorruptRegions++
			s.report.CorruptSkipped += next - off
			salvaging = true
			off = next
			r = bufio.NewReader(io.NewSectionReader(s.f, off, size-off))
			continue
		}
		valOff := off + 9 + int64(len(key))
		switch rec {
		case opBegin:
			if batchAt >= 0 {
				drop() // a batch with no commit frame before the next
			} else if afterDamage {
				apply()
			}
			batchAt, afterDamage = off, false
		case opCommit:
			if batchAt >= 0 && int(binary.LittleEndian.Uint32(val)) == len(held) {
				apply()
			} else {
				drop()
			}
			batchAt, afterDamage = -1, false
		default:
			if batchAt >= 0 || afterDamage {
				held = append(held, heldRecord{op: rec, key: key, valOff: valOff, valLen: int32(len(val))})
				break
			}
			s.applyRecord(rec, key, recordRef{off: valOff, length: int32(len(val))})
			s.report.Records++
			if salvaging {
				s.report.SalvagedRecords++
			}
		}
		off = valOff + int64(len(val)) + 4 // skip crc
	}
	if off == size && batchAt >= 0 {
		// The log ends inside a batch: a Commit cut off before its
		// commit frame landed.
		drop()
		if err := s.f.Truncate(batchAt); err != nil {
			return fmt.Errorf("store: truncating torn batch: %w", err)
		}
		s.report.TailTruncated = size - batchAt
		off = batchAt
	}
	apply()
	s.size = off
	return nil
}

// heldRecord is a record replay has read but not yet applied.
type heldRecord struct {
	op     byte
	key    string
	valOff int64
	valLen int32
}

// applyRecord applies a put or delete to the index.
func (s *Store) applyRecord(op byte, key string, ref recordRef) {
	if op == opPut {
		s.index[key] = ref
	} else {
		delete(s.index, key)
	}
}

// validHeader reports whether a record header could be real: a known
// op, lengths in bounds, and a frame's empty key and 4-byte count.
func validHeader(op byte, keyLen, valLen int32) bool {
	switch op {
	case opPut, opDelete:
		return keyLen >= 0 && valLen >= 0 && keyLen <= maxKeyLen && valLen <= maxValLen
	case opBegin, opCommit:
		return keyLen == 0 && valLen == 4
	}
	return false
}

// scanForRecord returns the smallest offset in [from, size) at which a
// complete CRC-valid record begins, or -1. A false positive needs random
// bytes to pass the op/bounds sanity checks and a CRC32 collision, so in
// practice the scan resynchronizes exactly at the next real record.
func (s *Store) scanForRecord(from, size int64) int64 {
	const window = 64 << 10
	buf := make([]byte, window)
	for base := from; base < size; {
		n := window
		if rem := size - base; rem < int64(n) {
			n = int(rem)
		}
		m, _ := s.f.ReadAt(buf[:n], base)
		if m <= 0 {
			return -1
		}
		for i := 0; i < m; i++ {
			if buf[i] < opPut || buf[i] > opCommit {
				continue
			}
			if cand := base + int64(i); s.validRecordAt(cand, size) {
				return cand
			}
		}
		base += int64(m)
	}
	return -1
}

// validRecordAt reports whether a complete CRC-valid record starts at off.
func (s *Store) validRecordAt(off, size int64) bool {
	var hdr [9]byte
	if _, err := s.f.ReadAt(hdr[:], off); err != nil {
		return false
	}
	keyLen := int32(binary.LittleEndian.Uint32(hdr[1:5]))
	valLen := int32(binary.LittleEndian.Uint32(hdr[5:9]))
	if !validHeader(hdr[0], keyLen, valLen) {
		return false
	}
	total := 9 + int64(keyLen) + int64(valLen) + 4
	if off+total > size {
		return false
	}
	body := make([]byte, int(keyLen)+int(valLen)+4)
	if _, err := io.ReadFull(io.NewSectionReader(s.f, off+9, total-9), body); err != nil {
		return false
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	crc.Write(body[:keyLen+valLen])
	return crc.Sum32() == binary.LittleEndian.Uint32(body[keyLen+valLen:])
}

// readRecord reads and CRC-checks the next record. The key is copied
// into a string; val aliases *scratch, which the caller passes again
// for every record.
func readRecord(r *bufio.Reader, scratch *[]byte) (op byte, key string, val []byte, err error) {
	var hdr [9]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = errors.New("store: torn header")
		}
		return
	}
	op = hdr[0]
	keyLen := int32(binary.LittleEndian.Uint32(hdr[1:5]))
	valLen := int32(binary.LittleEndian.Uint32(hdr[5:9]))
	if !validHeader(op, keyLen, valLen) {
		err = errors.New("store: invalid record header")
		return
	}
	need := int(keyLen) + int(valLen) + 4
	if cap(*scratch) < need {
		// Headroom: a snapshot's records differ by a few text bytes, and
		// an exact fit would reallocate on every slightly longer one.
		*scratch = make([]byte, need+need/4)
	}
	buf := (*scratch)[:need]
	if _, err = io.ReadFull(r, buf); err != nil {
		err = errors.New("store: torn record body")
		return
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	crc.Write(buf[:keyLen+valLen])
	if crc.Sum32() != binary.LittleEndian.Uint32(buf[keyLen+valLen:]) {
		err = errors.New("store: checksum mismatch")
		return
	}
	return op, string(buf[:keyLen]), buf[keyLen : keyLen+valLen], nil
}

// recordHeader returns the header and trailing checksum of a record.
func recordHeader(op byte, key string, val []byte) (hdr [9]byte, sum [4]byte) {
	hdr[0] = op
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(val)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	crc.Write([]byte(key))
	crc.Write(val)
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	return hdr, sum
}

func appendRecord(w io.Writer, op byte, key string, val []byte) (int, error) {
	hdr, sum := recordHeader(op, key, val)
	n := 0
	for _, chunk := range [][]byte{hdr[:], []byte(key), val, sum[:]} {
		m, err := w.Write(chunk)
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Put stores val under key, overwriting any previous value. A write
// failure wedges the store (see ErrWedged): the buffered writer may hold
// part of a record, and flushing anything after it would bury garbage
// mid-log that replay could misparse.
func (s *Store) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged != nil {
		return s.wedged
	}
	n, err := appendRecord(s.writer(), opPut, key, val)
	if err != nil {
		s.wedge(err)
		return fmt.Errorf("store: appending put: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		s.wedge(err)
		return fmt.Errorf("store: flushing put: %w", err)
	}
	s.index[key] = recordRef{off: s.size + 9 + int64(len(key)), length: int32(len(val))}
	s.size += int64(n)
	return nil
}

// Get returns the value stored under key, or ErrNotFound. Reads work
// even on a wedged store: the index only ever references fully flushed
// records.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ref, ok := s.index[key]
	if !ok {
		return nil, ErrNotFound
	}
	val := make([]byte, ref.length)
	if _, err := s.f.ReadAt(val, ref.off); err != nil {
		return nil, fmt.Errorf("store: reading value: %w", err)
	}
	return val, nil
}

// Reader returns a reader over the value stored under key, or
// ErrNotFound. It reads the log in place, so a value of megabytes is
// never held whole; a Compact, Reopen or Close after the call makes its
// reads fail rather than return other bytes.
func (s *Store) Reader(key string) (io.Reader, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ref, ok := s.index[key]
	if !ok {
		return nil, ErrNotFound
	}
	return io.NewSectionReader(s.f, ref.off, int64(ref.length)), nil
}

// Delete removes key. Deleting a missing key is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged != nil {
		return s.wedged
	}
	if _, ok := s.index[key]; !ok {
		return nil
	}
	n, err := appendRecord(s.writer(), opDelete, key, nil)
	if err != nil {
		s.wedge(err)
		return fmt.Errorf("store: appending delete: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		s.wedge(err)
		return fmt.Errorf("store: flushing delete: %w", err)
	}
	delete(s.index, key)
	s.size += int64(n)
	return nil
}

// Len reports the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Keys returns the live keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SizeOnDisk reports the current log size in bytes, including garbage.
func (s *Store) SizeOnDisk() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// LiveBytes reports the size the log would have after Compact: one put
// record per live key.
func (s *Store) LiveBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for key, ref := range s.index {
		n += 13 + int64(len(key)) + int64(ref.length) // header(9) key value crc(4)
	}
	return n
}

// Compact rewrites the log with only live records, reclaiming the space
// of overwritten and deleted ones and of batch frames. Put never
// compacts on its own: the FL coordinator (flserve) and the registry
// call it once the log is more than twice LiveBytes. The rewrite goes to
// a sibling temp file that atomically replaces the log — fsynced before
// the rename and with the directory fsynced after it, so an OS crash at
// any point yields either the old log or the complete new one, never a
// truncated or missing file. A store from OpenLocked locks the rewrite
// before the rename makes it the log, so no other opener can take the
// new log while this store still holds the old one.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged != nil {
		return s.wedged
	}
	tmpPath := s.path + ".compact"
	tmp, err := s.fs.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating compaction file: %w", err)
	}
	var lock *fileLock // the rewrite's own lock, when the lock is per file
	abort := func(err error, what string) error {
		lock.release()
		tmp.Close()
		s.fs.Remove(tmpPath)
		return fmt.Errorf("store: compaction %s: %w", what, err)
	}
	bw := bufio.NewWriter(tmp)
	newIndex := make(map[string]recordRef, len(s.index))
	var off int64
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		ref := s.index[key]
		val := make([]byte, ref.length)
		if _, err := s.f.ReadAt(val, ref.off); err != nil {
			return abort(err, "read")
		}
		n, err := appendRecord(bw, opPut, key, val)
		if err != nil {
			return abort(err, "write")
		}
		newIndex[key] = recordRef{off: off + 9 + int64(len(key)), length: ref.length}
		off += int64(n)
	}
	if err := bw.Flush(); err != nil {
		return abort(err, "flush")
	}
	// The rewrite must be durable before the rename makes it the only
	// copy: rename-without-fsync can replace a good log with a
	// truncated or empty one on OS crash.
	if err := tmp.Sync(); err != nil {
		return abort(err, "fsync")
	}
	if s.lock != nil && s.lock.perFile {
		if lock, err = lockFile(s.fs, tmpPath, tmp); err != nil {
			return abort(err, "lock")
		}
	}
	if err := s.fs.Rename(tmpPath, s.path); err != nil {
		return abort(err, "swap")
	}
	// Past the rename the rewrite is the log: the store carries on with
	// its handle (positioned at its end by the writes above) and lets
	// the old one go. A path lock covers the new log as it did the old.
	if lock != nil {
		s.lock.release()
		s.lock = lock
	}
	s.f.Close()
	s.f = tmp
	s.w = nil
	s.index = newIndex
	s.size = off
	// Any further failure wedges the store: the rename may not be
	// durable yet.
	if err := s.fs.SyncDir(filepath.Dir(s.path)); err != nil {
		s.wedge(err)
		return fmt.Errorf("store: fsyncing directory after compaction swap: %w", err)
	}
	s.dirSynced = true
	return nil
}

// Sync flushes buffered writes and forces them to stable storage — the
// durability barrier after which the data survives an OS crash, not just
// a process kill. The first Sync also fsyncs the log's directory so a
// freshly created file cannot be forgotten by the directory itself. A
// failed fsync wedges the store and is never retried in place: the
// kernel may have dropped the dirty pages while reporting them clean, so
// a "successful" retry would durably lose them (fsyncgate).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged != nil {
		return s.wedged
	}
	if err := s.flush(); err != nil {
		s.wedge(err)
		return fmt.Errorf("store: sync flush: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		s.wedge(err)
		return fmt.Errorf("store: fsync: %w", err)
	}
	if !s.dirSynced {
		if err := s.fs.SyncDir(filepath.Dir(s.path)); err != nil {
			s.wedge(err)
			return fmt.Errorf("store: fsyncing directory: %w", err)
		}
		s.dirSynced = true
	}
	return nil
}

// Close flushes and closes the underlying file. A wedged store closes
// without flushing: the buffer may hold a partial record, and the log's
// last successful flush is the state reopen recovers.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged != nil {
		return s.closeFile()
	}
	if err := s.flush(); err != nil {
		s.wedge(err)
		s.closeFile()
		return fmt.Errorf("store: final flush: %w", err)
	}
	return s.closeFile()
}
