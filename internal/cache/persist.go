package cache

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/store"
)

// entryPrefix namespaces cache entry records within a store, so callers
// can keep their own records (other prefixes) in the same log.
const entryPrefix = "entry/"

// entryWire is the persistent form of an Entry. Its field names and
// types are also the legacy gob schema, so they must not change.
type entryWire struct {
	ID        int
	Query     string
	Response  string
	Embedding []float32
	Parent    int
}

// entryFormat is the first byte of an entry record's value:
//
//	entryFormat(1) id(varint) parent(varint)
//	len(uvarint) query  len(uvarint) response
//	n(uvarint) n × float32 bits, little-endian
//
// and nothing after it. Earlier versions wrote one self-describing gob
// stream per entry; those still load (decodeEntry), but are never
// written. A gob stream opens with its first message's byte count, which
// encoding/gob writes as a single byte ≤ 0x7f or as 0xf8–0xff followed
// by the count, so 0x81 never starts one and the first byte alone tells
// the two formats apart.
const entryFormat byte = 0x81

// appendEntry appends e's record value to dst.
func appendEntry(dst []byte, e *Entry) []byte {
	dst = append(dst, entryFormat)
	dst = binary.AppendVarint(dst, int64(e.ID))
	dst = binary.AppendVarint(dst, int64(e.Parent))
	dst = binary.AppendUvarint(dst, uint64(len(e.Query)))
	dst = append(dst, e.Query...)
	dst = binary.AppendUvarint(dst, uint64(len(e.Response)))
	dst = append(dst, e.Response...)
	dst = binary.AppendUvarint(dst, uint64(len(e.Embedding)))
	for _, x := range e.Embedding {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}

var errEntryTruncated = errors.New("truncated entry record")

// decodeEntry parses one entry record value, in either format. The value
// comes from disk: every length is checked against the bytes actually
// present before anything is sliced or allocated from it.
func decodeEntry(raw []byte) (entryWire, error) {
	var w entryWire
	if len(raw) == 0 || raw[0] != entryFormat {
		err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&w)
		return w, err
	}
	rest := raw[1:]
	var err error
	if w.ID, rest, err = readInt(rest); err != nil {
		return w, err
	}
	if w.Parent, rest, err = readInt(rest); err != nil {
		return w, err
	}
	if w.Query, rest, err = readString(rest); err != nil {
		return w, err
	}
	if w.Response, rest, err = readString(rest); err != nil {
		return w, err
	}
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return w, errEntryTruncated
	}
	rest = rest[k:]
	if n != uint64(len(rest))/4 || len(rest)%4 != 0 {
		return w, fmt.Errorf("embedding count %d does not match the %d bytes that follow", n, len(rest))
	}
	w.Embedding = make([]float32, n)
	for i := range w.Embedding {
		w.Embedding[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest[4*i:]))
	}
	return w, nil
}

func readInt(b []byte) (int, []byte, error) {
	v, k := binary.Varint(b)
	if k <= 0 {
		return 0, b, errEntryTruncated
	}
	if int64(int(v)) != v {
		return 0, b, fmt.Errorf("integer %d overflows int", v)
	}
	return int(v), b[k:], nil
}

func readString(b []byte) (string, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return "", b, errEntryTruncated
	}
	end := k + int(n)
	return string(b[k:end]), b[end:], nil
}

// SaveTo writes every live entry into st (one record per entry, keyed by
// entry ID). Existing records in st under colliding keys are overwritten;
// records for entries that no longer exist are deleted, so st mirrors the
// cache exactly after the call.
func (c *Cache) SaveTo(st *store.Store) error {
	c.mu.RLock()
	entries := make([]*Entry, len(c.entries))
	copy(entries, c.entries)
	c.mu.RUnlock()

	live := make(map[string]bool, len(entries))
	var buf []byte // one scratch for every record: Put has written it out when it returns
	for _, e := range entries {
		key := entryKey(e.ID)
		live[key] = true
		buf = appendEntry(buf[:0], e)
		if err := st.Put(key, buf); err != nil {
			return fmt.Errorf("cache: persisting entry %d: %w", e.ID, err)
		}
	}
	for _, key := range st.Keys() {
		// Only entry records are pruned: the store may hold other
		// namespaces (e.g. the serving layer's per-tenant metadata).
		if strings.HasPrefix(key, entryPrefix) && !live[key] {
			if err := st.Delete(key); err != nil {
				return fmt.Errorf("cache: pruning stale record %s: %w", key, err)
			}
		}
	}
	return nil
}

// LoadFrom rebuilds a cache from records written by SaveTo. Entry IDs are
// preserved (so parent links stay valid); the next allocated ID continues
// past the maximum loaded ID. Parents are inserted before children.
func LoadFrom(st *store.Store, dim, capacity int, policy Policy) (*Cache, error) {
	c := New(dim, capacity, policy)
	if err := loadEntries(c, st, dim); err != nil {
		return nil, err
	}
	return c, nil
}

// loadEntries reads SaveTo records into c, indexing each entry into
// c.idx exactly once — callers install the index before loading, so
// revival never builds a throwaway index.
func loadEntries(c *Cache, st *store.Store, dim int) error {
	var wires []entryWire
	for _, key := range st.Keys() {
		if !strings.HasPrefix(key, entryPrefix) {
			continue
		}
		raw, err := st.Get(key)
		if err != nil {
			return fmt.Errorf("cache: reading %s: %w", key, err)
		}
		w, err := decodeEntry(raw)
		if err != nil {
			return fmt.Errorf("cache: decoding %s: %w", key, err)
		}
		if len(w.Embedding) != dim {
			return fmt.Errorf("cache: entry %d has dim %d, cache wants %d", w.ID, len(w.Embedding), dim)
		}
		wires = append(wires, w)
	}
	// Topological insert: standalone entries first, then children whose
	// parents are present; cycles or orphans are dropped with an error.
	sort.Slice(wires, func(i, j int) bool { return wires[i].ID < wires[j].ID })
	inserted := make(map[int]bool)
	pending := wires
	for len(pending) > 0 {
		var next []entryWire
		progress := false
		for _, w := range pending {
			if w.Parent != NoParent && !inserted[w.Parent] {
				next = append(next, w)
				continue
			}
			c.mu.Lock()
			e := &Entry{
				ID: w.ID, Query: w.Query, Response: w.Response,
				Embedding: w.Embedding, Parent: w.Parent,
			}
			c.clock++
			e.lastUsed = c.clock
			e.seq = c.clock
			if err := c.idx.Add(w.ID, e.Embedding); err != nil {
				c.mu.Unlock()
				return fmt.Errorf("cache: indexing loaded entry %d: %w", w.ID, err)
			}
			c.byID[w.ID] = len(c.entries)
			c.entries = append(c.entries, e)
			if w.ID >= c.nextID {
				c.nextID = w.ID + 1
			}
			c.mu.Unlock()
			inserted[w.ID] = true
			progress = true
		}
		if !progress {
			return fmt.Errorf("cache: %d entries with missing or cyclic parents", len(next))
		}
		pending = next
	}
	return nil
}

func entryKey(id int) string { return entryPrefix + strconv.Itoa(id) }
