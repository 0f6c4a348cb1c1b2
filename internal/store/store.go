// Package store provides the persistent local cache storage that the paper
// delegates to Python's DiskCache: a crash-tolerant, append-only-log
// key/value store with an in-memory index.
//
// Records are length-prefixed and CRC-checked. Open repairs whatever a
// crash or bit rot left behind — a torn final record is truncated, and a
// corrupt region mid-log is skipped to the next CRC-valid record boundary
// so the data beyond it is salvaged rather than discarded — and reports
// what it did through OpenReport. Deletes are tombstone records, so the
// log replays to the exact live set. Compact rewrites the log to reclaim
// space from overwritten and deleted entries, fsyncing the rewrite and
// the directory around the swap so a crash can never leave a truncated
// log where a good one stood.
//
// Write and fsync failures wedge the store: every subsequent mutation
// returns ErrWedged until the store is reopened. A failed write may leave
// partial record bytes in the write buffer or the file; appending after
// them would bury garbage mid-log, and a failed fsync may have already
// dropped the very pages it was asked to persist (the fsyncgate failure
// mode), so retrying either in place would turn one lost write into
// silent corruption. Reads keep working on a wedged store.
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
	w    *bufio.Writer
	// index maps live keys to their value offsets in the log.
	index map[string]recordRef
	// garbage counts superseded bytes, driving compaction heuristics.
	garbage int64
	size    int64
	report  OpenReport
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
func OpenFS(fsys FS, path string) (*Store, error) {
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating directory: %w", err)
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	s := &Store{path: path, fs: fsys, f: f, index: make(map[string]recordRef)}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(s.size, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seeking to log end: %w", err)
	}
	s.w = bufio.NewWriter(f)
	return s, nil
}

// Report describes what Open found and repaired. It does not change
// after Open.
func (s *Store) Report() OpenReport { return s.report }

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
func (s *Store) replay() error {
	size, err := s.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: sizing log: %w", err)
	}
	var off int64
	salvaging := false
	r := bufio.NewReader(io.NewSectionReader(s.f, 0, size))
	var body []byte // record scratch, grown to the largest record and reused
	for off < size {
		rec, key, valOff, valLen, err := readRecord(r, off, &body)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Damaged bytes at off. Salvage-scan for the next CRC-valid
			// record boundary: bit rot mid-log must not discard the
			// intact records beyond it. If nothing intact follows, this
			// is a torn tail — truncate to the last good record.
			next := s.scanForRecord(off+1, size)
			if next < 0 {
				if terr := s.f.Truncate(off); terr != nil {
					return fmt.Errorf("store: truncating corrupt tail: %w", terr)
				}
				s.report.TailTruncated = size - off
				size = off
				break
			}
			s.report.CorruptRegions++
			s.report.CorruptSkipped += next - off
			s.garbage += next - off
			salvaging = true
			off = next
			r = bufio.NewReader(io.NewSectionReader(s.f, off, size-off))
			continue
		}
		switch rec {
		case opPut:
			if old, ok := s.index[key]; ok {
				s.garbage += int64(old.length)
			}
			s.index[key] = recordRef{off: valOff, length: valLen}
		case opDelete:
			if old, ok := s.index[key]; ok {
				s.garbage += int64(old.length)
				delete(s.index, key)
			}
		}
		s.report.Records++
		if salvaging {
			s.report.SalvagedRecords++
		}
		off = valOff + int64(valLen) + 4 // skip crc
	}
	s.size = off
	return nil
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
		m, err := s.f.ReadAt(buf[:n], base)
		if m <= 0 {
			if err != nil {
				return -1
			}
			return -1
		}
		for i := 0; i < m; i++ {
			if buf[i] != opPut && buf[i] != opDelete {
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
	op := hdr[0]
	keyLen := int32(binary.LittleEndian.Uint32(hdr[1:5]))
	valLen := int32(binary.LittleEndian.Uint32(hdr[5:9]))
	if (op != opPut && op != opDelete) || keyLen < 0 || valLen < 0 || keyLen > maxKeyLen || valLen > maxValLen {
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

// readRecord reads and CRC-checks the record at off. Nothing returned
// aliases *scratch (the key is copied into a string), so the caller
// passes the same scratch for every record.
func readRecord(r *bufio.Reader, off int64, scratch *[]byte) (op byte, key string, valOff int64, valLen int32, err error) {
	var hdr [9]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = errors.New("store: torn header")
		}
		return
	}
	op = hdr[0]
	keyLen := int32(binary.LittleEndian.Uint32(hdr[1:5]))
	valLen = int32(binary.LittleEndian.Uint32(hdr[5:9]))
	if op != opPut && op != opDelete || keyLen < 0 || valLen < 0 || keyLen > maxKeyLen || valLen > maxValLen {
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
	key = string(buf[:keyLen])
	valOff = off + 9 + int64(keyLen)
	return
}

func appendRecord(w io.Writer, op byte, key string, val []byte) (int, error) {
	var hdr [9]byte
	hdr[0] = op
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(val)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	crc.Write([]byte(key))
	crc.Write(val)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
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
	n, err := appendRecord(s.w, opPut, key, val)
	if err != nil {
		s.wedge(err)
		return fmt.Errorf("store: appending put: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		s.wedge(err)
		return fmt.Errorf("store: flushing put: %w", err)
	}
	if old, ok := s.index[key]; ok {
		s.garbage += int64(old.length)
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
	n, err := appendRecord(s.w, opDelete, key, nil)
	if err != nil {
		s.wedge(err)
		return fmt.Errorf("store: appending delete: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		s.wedge(err)
		return fmt.Errorf("store: flushing delete: %w", err)
	}
	s.garbage += int64(s.index[key].length)
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

// Compact rewrites the log with only live records, reclaiming garbage.
// The rewrite goes to a sibling temp file that atomically replaces the
// log — fsynced before the rename and with the directory fsynced after
// it, so an OS crash at any point yields either the old log or the
// complete new one, never a truncated or missing file.
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
	abort := func(err error, what string) error {
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
	if err := tmp.Close(); err != nil {
		s.fs.Remove(tmpPath)
		return fmt.Errorf("store: closing compaction file: %w", err)
	}
	if err := s.fs.Rename(tmpPath, s.path); err != nil {
		s.fs.Remove(tmpPath)
		return fmt.Errorf("store: swapping compacted log: %w", err)
	}
	// Past the rename the old log is unlinked: any further failure
	// wedges the store (reads continue against the old inode, whose
	// live content matches the index).
	if err := s.fs.SyncDir(filepath.Dir(s.path)); err != nil {
		s.wedge(err)
		return fmt.Errorf("store: fsyncing directory after compaction swap: %w", err)
	}
	f, err := s.fs.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		s.wedge(err)
		return fmt.Errorf("store: reopening compacted log: %w", err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		s.wedge(err)
		return fmt.Errorf("store: seeking compacted log: %w", err)
	}
	s.f.Close()
	s.f = f
	s.w = bufio.NewWriter(f)
	s.index = newIndex
	s.size = off
	s.garbage = 0
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
	if err := s.w.Flush(); err != nil {
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
		return s.f.Close()
	}
	if err := s.w.Flush(); err != nil {
		s.wedge(err)
		s.f.Close()
		return fmt.Errorf("store: final flush: %w", err)
	}
	return s.f.Close()
}
