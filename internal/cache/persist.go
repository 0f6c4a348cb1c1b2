package cache

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/store"
)

// entryPrefix namespaces cache entry records within a store, so callers
// can keep their own records (other prefixes) in the same log.
const entryPrefix = "entry/"

// entryWire is the persistent form of an Entry and its embedding. Its
// field names and types are also the legacy gob schema, so they must not
// change.
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

// appendEntry appends the record value of e, whose embedding is emb, to
// dst.
func appendEntry(dst []byte, e *Entry, emb []float32) []byte {
	dst = append(dst, entryFormat)
	dst = binary.AppendVarint(dst, int64(e.ID))
	dst = binary.AppendVarint(dst, int64(e.Parent))
	dst = binary.AppendUvarint(dst, uint64(len(e.Query)))
	dst = append(dst, e.Query...)
	dst = binary.AppendUvarint(dst, uint64(len(e.Response)))
	dst = append(dst, e.Response...)
	dst = binary.AppendUvarint(dst, uint64(len(emb)))
	for _, x := range emb {
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
// entry ID) as one committed batch. Existing records in st under
// colliding keys are overwritten; records for entries that no longer
// exist are deleted, so st mirrors the cache exactly after the call. The
// batch is built under the read lock, so it is one consistent state of
// the cache: a child is never saved without its parent. Like a Put, the
// batch is durable only after st.Sync.
func (c *Cache) SaveTo(st *store.Store) error {
	var b store.Batch
	c.mu.RLock()
	c.addChanges(&b, st, nil, true)
	c.mu.RUnlock()
	if err := st.Commit(&b); err != nil {
		return fmt.Errorf("cache: persisting entries: %w", err)
	}
	return nil
}

// genKey holds a nonce that every AppendTo batch replaces, so a cache can
// tell that a log still holds exactly what it last read or wrote there.
const genKey = "meta/gen"

// logMark is what a store log held when the cache last loaded from it
// or appended a batch to it.
type logMark struct {
	gen   string // the log's genKey value
	size  int64  // the log's size
	epoch uint64 // the cache's epoch
	ids   []int  // the IDs of the entry records the log holds, ascending
}

// matches reports whether st still holds what m recorded, for a cache at
// epoch: same nonce, same size, no repair at open, and no re-embed since.
func (m *logMark) matches(st *store.Store, epoch uint64) bool {
	if m == nil || m.epoch != epoch || m.size != st.SizeOnDisk() || st.Report().Dirty() {
		return false
	}
	gen, err := st.Get(genKey)
	return err == nil && string(gen) == m.gen
}

func newGen() string { return strconv.FormatUint(rand.Uint64(), 36) }

// Appended reports what AppendTo wrote.
type Appended struct {
	// Whole: the batch mirrored the whole cache, not just its changes.
	Whole bool
	// Compacted: the log was rewritten after the batch. CompactErr is a
	// failed rewrite; the batch was already durable when it failed.
	Compacted  bool
	CompactErr error
}

// AppendTo appends to st, as one committed batch, b's records plus the
// entries that changed since the cache last loaded from st (LoadFrom) or
// appended to it: a put for each new entry and a tombstone for each one
// removed. The batch mirrors the whole cache instead — every entry put,
// every other entry record deleted — unless st's generation nonce and
// size and the cache's re-embed epoch are all still what they were
// then. That covers the first write, a log that another writer or a
// repair at open changed, a legacy-format log, and a re-embed. The batch
// is synced before AppendTo returns nil, and the log is then compacted
// if it holds more garbage than live bytes. The caller holds st
// exclusively (store.OpenLocked). A nil b is an empty batch.
func (c *Cache) AppendTo(st *store.Store, b *store.Batch) (Appended, error) {
	if b == nil {
		b = new(store.Batch)
	}
	c.logMu.Lock()
	defer c.logMu.Unlock()
	mark := c.log
	c.log = nil // unknown until the batch is durable
	c.mu.RLock()
	var res Appended
	res.Whole = !mark.matches(st, c.epoch)
	var logged []int
	if !res.Whole {
		logged = mark.ids
	}
	next := &logMark{gen: newGen(), epoch: c.epoch}
	b.Put(genKey, []byte(next.gen))
	next.ids = c.addChanges(b, st, logged, res.Whole)
	c.mu.RUnlock()
	if err := st.Commit(b); err != nil {
		return res, fmt.Errorf("cache: appending batch: %w", err)
	}
	if err := st.Sync(); err != nil {
		// The kernel may have dropped the pages it failed to write
		// while marking them clean: appending to this file again
		// cannot make them durable, so the next append rewrites it.
		c.rewrite = true
		return res, fmt.Errorf("cache: syncing batch: %w", err)
	}
	if c.rewrite || st.SizeOnDisk() > 2*st.LiveBytes() {
		if err := st.Compact(); err != nil {
			res.CompactErr = err
			return res, nil
		}
		res.Compacted, c.rewrite = true, false
	}
	next.size = st.SizeOnDisk()
	c.log = next
	return res, nil
}

// addChanges adds to b what turns a log holding the entry records in
// logged (ascending IDs) into one holding c's entries; when whole, it
// instead puts every entry and deletes every other entry record st
// holds. It returns c's entry IDs, ascending. Callers hold the read
// lock.
func (c *Cache) addChanges(b *store.Batch, st *store.Store, logged []int, whole bool) []int {
	ids := make([]int, 0, len(c.entries))
	for _, e := range c.entries {
		ids = append(ids, e.ID)
	}
	slices.Sort(ids)
	var (
		puts    []int
		deletes []string
	)
	if whole {
		puts = ids
		for _, key := range st.Keys() {
			// Only entry records are pruned: the store may hold other
			// namespaces (e.g. the serving layer's per-tenant metadata).
			if !strings.HasPrefix(key, entryPrefix) {
				continue
			}
			if id, ok := parseEntryKey(key); ok {
				if _, live := slices.BinarySearch(ids, id); live {
					continue
				}
			}
			deletes = append(deletes, key)
		}
	} else {
		// Merge the two ascending lists.
		i, j := 0, 0
		for i < len(ids) || j < len(logged) {
			switch {
			case j == len(logged) || i < len(ids) && ids[i] < logged[j]:
				puts = append(puts, ids[i])
				i++
			case i == len(ids) || logged[j] < ids[i]:
				deletes = append(deletes, entryKey(logged[j]))
				j++
			default:
				i++
				j++
			}
		}
	}
	size := 0
	for _, id := range puts {
		size += store.RecordSize(entryKey(id), entryBound(c.byID[id], c.dim))
	}
	for _, key := range deletes {
		size += store.RecordSize(key, 0)
	}
	b.Grow(size)
	var (
		buf []byte    // one scratch for every record: the batch copies it
		vec []float32 // likewise for every embedding
	)
	for _, id := range puts {
		vec, _ = c.idx.Vector(id, vec[:0])
		buf = appendEntry(buf[:0], c.byID[id], vec)
		b.Put(entryKey(id), buf)
	}
	for _, key := range deletes {
		b.Delete(key)
	}
	return ids
}

// entryBound bounds the length of e's record value with a dim-float
// embedding: the format byte, four varints and the payload.
func entryBound(e *Entry, dim int) int {
	return 1 + 4*binary.MaxVarintLen64 + len(e.Query) + len(e.Response) + 4*dim
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

// loadEntries reads SaveTo records into c, adding each embedding to
// c.idx exactly once and keeping no other copy — callers install the
// index before loading, so revival never builds a throwaway index. It
// marks what st held for AppendTo's diff, unless st was repaired at
// open, holds no generation nonce, or holds a record that is not in the
// current format under its own ID's key.
func loadEntries(c *Cache, st *store.Store, dim int) error {
	var wires []entryWire
	current := !st.Report().Dirty()
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
		current = current && raw[0] == entryFormat && key == entryKey(w.ID)
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
			if err := c.idx.Add(w.ID, w.Embedding); err != nil {
				c.mu.Unlock()
				return fmt.Errorf("cache: indexing loaded entry %d: %w", w.ID, err)
			}
			c.link(&Entry{ID: w.ID, Query: w.Query, Response: w.Response, Parent: w.Parent})
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
	if gen, err := st.Get(genKey); err == nil && current {
		mark := &logMark{gen: string(gen), size: st.SizeOnDisk(), ids: make([]int, len(wires))}
		for i, w := range wires {
			mark.ids[i] = w.ID // sorted above
		}
		c.logMu.Lock()
		c.log = mark
		c.logMu.Unlock()
	}
	return nil
}

func entryKey(id int) string { return entryPrefix + strconv.Itoa(id) }

// parseEntryKey is entryKey's inverse; it rejects any other spelling.
func parseEntryKey(key string) (int, bool) {
	rest, ok := strings.CutPrefix(key, entryPrefix)
	if !ok {
		return 0, false
	}
	id, err := strconv.Atoi(rest)
	return id, err == nil && entryKey(id) == key
}
