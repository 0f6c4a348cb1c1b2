package cache

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/store"
)

// sameWire compares two decoded entries with embeddings by bit pattern:
// NaN payloads and the sign of zero are data, not noise.
func sameWire(a, b entryWire) bool {
	if a.ID != b.ID || a.Parent != b.Parent || a.Query != b.Query || a.Response != b.Response || len(a.Embedding) != len(b.Embedding) {
		return false
	}
	for i := range a.Embedding {
		if math.Float32bits(a.Embedding[i]) != math.Float32bits(b.Embedding[i]) {
			return false
		}
	}
	return true
}

func (w entryWire) entry() *Entry {
	return &Entry{ID: w.ID, Query: w.Query, Response: w.Response, Parent: w.Parent}
}

func encodeWire(w entryWire) []byte { return appendEntry(nil, w.entry(), w.Embedding) }

// loadedWire is e, a live entry of c, with the embedding c holds for it.
func loadedWire(c *Cache, e *Entry) entryWire {
	vec, _ := c.Vector(e.ID, nil)
	return entryWire{e.ID, e.Query, e.Response, vec, e.Parent}
}

// gobWire is the value the pre-binary SaveTo wrote for w.
func gobWire(t testing.TB, w entryWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEntryCodecRoundTrip(t *testing.T) {
	awkward := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), // quiet NaN with a payload
		math.Float32frombits(0xffa00000), // negative NaN, another payload
		math.Float32frombits(1),          // smallest subnormal
		math.Float32frombits(0x007fffff), // largest subnormal
		math.MaxFloat32, math.SmallestNonzeroFloat32, -1.5, 0.1,
	}
	for name, w := range map[string]entryWire{
		"plain":      {ID: 7, Query: "what is go", Response: "a language", Embedding: []float32{0.6, 0.8}, Parent: 3},
		"no parent":  {ID: 0, Query: "q", Response: "r", Embedding: []float32{1}, Parent: NoParent},
		"empty":      {ID: 1, Parent: NoParent, Embedding: []float32{}},
		"utf-8":      {ID: 2, Query: "naïve café — 日本語 🙂", Response: "\x00\xff raw bytes survive too", Embedding: []float32{1, 2, 3}, Parent: NoParent},
		"large ids":  {ID: math.MaxInt, Parent: math.MaxInt - 1, Embedding: []float32{1}},
		"negative":   {ID: math.MinInt, Parent: math.MinInt, Embedding: []float32{1}},
		"float bits": {ID: 3, Parent: NoParent, Embedding: awkward},
		"long text":  {ID: 4, Query: strings.Repeat("q", 300), Response: strings.Repeat("r", 70000), Embedding: make([]float32, 768), Parent: NoParent},
	} {
		raw := encodeWire(w)
		if raw[0] != entryFormat {
			t.Fatalf("%s: value starts with %#x, want the format byte %#x", name, raw[0], entryFormat)
		}
		got, err := decodeEntry(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !sameWire(got, w) {
			t.Fatalf("%s: round trip changed the entry:\n got %+v\nwant %+v", name, got, w)
		}
	}
}

// TestEntryCodecScratchReuse pins that appendEntry writes only past
// len(dst): SaveTo encodes every entry into one buffer.
func TestEntryCodecScratchReuse(t *testing.T) {
	big := encodeWire(entryWire{ID: 1, Query: strings.Repeat("x", 100), Embedding: make([]float32, 64), Parent: NoParent})
	small := entryWire{ID: 2, Query: "y", Response: "z", Embedding: []float32{0.5}, Parent: 1}
	raw := appendEntry(big[:0], small.entry(), small.Embedding)
	if &raw[0] != &big[0] {
		t.Fatal("appendEntry reallocated a buffer with room to spare")
	}
	if got, err := decodeEntry(raw); err != nil || !sameWire(got, small) {
		t.Fatalf("entry encoded over an old value decoded as %+v, %v", got, err)
	}
}

// TestLoadFromLegacyGobRecords is the upgrade path: a store written by
// the previous SaveTo (one gob stream per entry) loads through the same
// LoadFrom, next to records in the current format, and the next SaveTo
// rewrites everything in the current format.
func TestLoadFromLegacyGobRecords(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "cache.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	parent := entryWire{ID: 0, Query: "parent q", Response: "parent r", Embedding: unit(8, 1), Parent: NoParent}
	child := entryWire{ID: 1, Query: "child q", Response: "child r", Embedding: unit(8, 2), Parent: 0}
	fresh := entryWire{ID: 5, Query: "new-format q", Response: "r", Embedding: unit(8, 3), Parent: NoParent}
	for _, w := range []entryWire{parent, child} {
		raw := gobWire(t, w)
		if raw[0] == entryFormat {
			t.Fatalf("a gob stream starts with the format byte %#x", entryFormat)
		}
		if err := st.Put(entryKey(w.ID), raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put(entryKey(fresh.ID), encodeWire(fresh)); err != nil {
		t.Fatal(err)
	}

	c, err := LoadFrom(st, 8, 0, LRU{})
	if err != nil {
		t.Fatalf("LoadFrom legacy records: %v", err)
	}
	if c.Len() != 3 {
		t.Fatalf("loaded %d entries, want 3", c.Len())
	}
	for _, w := range []entryWire{parent, child, fresh} {
		e, ok := c.Get(w.ID)
		if !ok || !sameWire(loadedWire(c, e), w) {
			t.Fatalf("entry %d loaded as %+v, want %+v", w.ID, e, w)
		}
	}
	if chain := c.Chain(child.ID); len(chain) != 1 || chain[0].ID != parent.ID {
		t.Fatalf("legacy parent link lost: chain %+v", chain)
	}
	if hits := c.FindSimilar(child.Embedding, 1, 0.99); len(hits) != 1 || hits[0].Entry.ID != child.ID {
		t.Fatalf("legacy entry not indexed: %+v", hits)
	}

	if err := c.SaveTo(st); err != nil {
		t.Fatal(err)
	}
	for _, key := range st.Keys() {
		if raw, err := st.Get(key); err != nil || raw[0] != entryFormat {
			t.Fatalf("%s after SaveTo: first byte %#x, err %v; want the current format", key, raw[0], err)
		}
	}
}

// TestDecodeEntryRejectsMalformed: a damaged value is an error the caller
// can quarantine on, never a panic and never an allocation sized by a
// length the value does not back with bytes.
func TestDecodeEntryRejectsMalformed(t *testing.T) {
	good := encodeWire(entryWire{ID: 300, Query: "a query", Response: "a response", Embedding: []float32{1, 2, 3, 4}, Parent: 299})
	if _, err := decodeEntry(good); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(good); n++ {
		if w, err := decodeEntry(good[:n]); err == nil {
			t.Fatalf("value truncated to %d of %d bytes decoded: %+v", n, len(good), w)
		}
	}
	if w, err := decodeEntry(append(good[:len(good):len(good)], 0)); err == nil {
		t.Fatalf("value with a trailing byte decoded: %+v", w)
	}

	// 2^30 is a length make() would honour; 2^64-1 is one it would panic on.
	head := binary.AppendVarint(binary.AppendVarint([]byte{entryFormat}, 1), NoParent)
	big := binary.AppendUvarint(nil, 1<<30)
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, raw := range map[string][]byte{
		"query length past the end":     cat(head, big, []byte("abc")),
		"query length overflows int":    cat(head, huge, []byte("abc")),
		"query length one past the end": cat(head, []byte{4}, []byte("abc")),
		"response length past the end":  cat(head, []byte{0}, big, []byte("abc")),
		"embedding count too large":     cat(head, []byte{0, 0}, big, []byte{1, 2, 3, 4}),
		"embedding count overflows":     cat(head, []byte{0, 0}, huge, []byte{1, 2, 3, 4}),
		"embedding count too small":     cat(head, []byte{0, 0, 1}, []byte{1, 2, 3, 4, 5, 6, 7, 8}),
		"embedding bytes not whole":     cat(head, []byte{0, 0, 1}, []byte{1, 2, 3, 4, 5}),
		"overlong varint id":            cat([]byte{entryFormat}, bytes.Repeat([]byte{0xff}, 11)),
		"format byte alone":             {entryFormat},
		"neither format":                []byte("not a gob stream"),
		"no bytes":                      nil,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := decodeEntry(raw)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded %+v", name, w)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: rejecting a %d-byte value allocated %d bytes", name, len(raw), got)
		}
	}

	// A decodable value of the wrong dimension is refused by the loader,
	// which is what sends the snapshot to quarantine.
	st, err := store.Open(filepath.Join(t.TempDir(), "cache.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(entryKey(300), good); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFrom(st, 8, 0, LRU{}); err == nil || !strings.Contains(err.Error(), "dim 4") {
		t.Fatalf("LoadFrom accepted a 4-d entry into an 8-d cache: %v", err)
	}
	if err := st.Put(entryKey(300), good[:len(good)-3]); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFrom(st, 4, 0, LRU{}); err == nil {
		t.Fatal("LoadFrom accepted a truncated entry value")
	}
}

// FuzzDecodeEntry: no input panics the decoder, and whatever decodes (in
// either format) re-encodes to a value that decodes to the same entry.
func FuzzDecodeEntry(f *testing.F) {
	w := entryWire{ID: 12, Query: "what is a cache", Response: "a store of answers", Embedding: []float32{0.25, -0.5, float32(math.NaN())}, Parent: 3}
	f.Add(encodeWire(w))
	f.Add(gobWire(f, w))
	f.Add([]byte{entryFormat})
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := decodeEntry(raw)
		if err != nil {
			return
		}
		again, err := decodeEntry(encodeWire(got))
		if err != nil {
			t.Fatalf("re-encoded value does not decode: %v (entry %+v)", err, got)
		}
		if !sameWire(again, got) {
			t.Fatalf("re-encoding changed the entry:\n got %+v\nwant %+v", again, got)
		}
	})
}
