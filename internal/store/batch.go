package store

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// A Batch is a set of puts and deletes that Commit appends to a log as
// one unit: a begin frame, the records, and a commit frame, written
// with one write. Replay applies a batch only once its commit frame is
// intact, so a crash mid-Commit leaves the log as it was before it. The
// zero Batch is empty and ready to use.
type Batch struct {
	buf  []byte // the begin frame's room, then the records, encoded
	recs []batchRecord
}

type batchRecord struct {
	op     byte
	key    string
	valOff int64 // offset of the value within buf
	valLen int32
}

// Put adds a put of val under key; val is copied.
func (b *Batch) Put(key string, val []byte) { b.add(opPut, key, val) }

// Delete adds a tombstone for key. Committing it for a key the log does
// not hold is harmless.
func (b *Batch) Delete(key string) { b.add(opDelete, key, nil) }

// Grow makes room for n more bytes of records (RecordSize each), so
// that adding them does not reallocate.
func (b *Batch) Grow(n int) {
	if len(b.buf) == 0 {
		n += frameLen
	}
	b.buf = slices.Grow(b.buf, n+frameLen) // and the commit frame
}

// RecordSize is the bytes a put of a value of valLen bytes under key
// takes in a log.
func RecordSize(key string, valLen int) int { return 9 + len(key) + valLen + 4 }

func (b *Batch) add(op byte, key string, val []byte) {
	if len(b.buf) == 0 {
		b.buf = append(b.buf, make([]byte, frameLen)...) // the begin frame, filled in by Commit
	}
	hdr, sum := recordHeader(op, key, val)
	b.buf = append(b.buf, hdr[:]...)
	b.buf = append(b.buf, key...)
	b.recs = append(b.recs, batchRecord{op: op, key: key, valOff: int64(len(b.buf)), valLen: int32(len(val))})
	b.buf = append(b.buf, val...)
	b.buf = append(b.buf, sum[:]...)
}

// frameLen is the size of a begin or commit frame: a record with an
// empty key and a 4-byte value, the batch's record count.
const frameLen = 9 + 4 + 4

// appendFrame appends a frame record counting n records to dst.
func appendFrame(dst []byte, op byte, n int) []byte {
	var count [4]byte
	binary.LittleEndian.PutUint32(count[:], uint32(n))
	hdr, sum := recordHeader(op, "", count[:])
	dst = append(dst, hdr[:]...)
	dst = append(dst, count[:]...)
	return append(dst, sum[:]...)
}

// Commit appends b to the log with one write and applies it. Like Put it
// is durable only after Sync, and a failed write wedges the store. An
// empty batch writes nothing.
func (s *Store) Commit(b *Batch) error {
	if len(b.recs) == 0 {
		return nil
	}
	appendFrame(b.buf[:0], opBegin, len(b.recs))
	body := len(b.buf)
	b.buf = appendFrame(b.buf, opCommit, len(b.recs))
	defer func() { b.buf = b.buf[:body] }()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged != nil {
		return s.wedged
	}
	// Every mutation flushes before it returns, so nothing is buffered
	// ahead of the batch, and it goes out in one write.
	if _, err := s.f.Write(b.buf); err != nil {
		s.wedge(err)
		return fmt.Errorf("store: appending batch: %w", err)
	}
	for _, r := range b.recs {
		s.applyRecord(r.op, r.key, recordRef{off: s.size + r.valOff, length: r.valLen})
	}
	s.size += int64(len(b.buf))
	return nil
}
