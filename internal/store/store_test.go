package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func openTemp(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cache.log")
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, path
}

func TestPutGet(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	if err := s.Put("k1", []byte("v1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("k1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != "v1" {
		t.Fatalf("Get = %q, want v1", got)
	}
}

func TestGetMissing(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	if _, err := s.Get("nope"); err != ErrNotFound {
		t.Fatalf("Get(missing) err = %v, want ErrNotFound", err)
	}
}

// TestReaderReadsValueInPlace: Reader streams the value Get returns,
// reports a missing key as ErrNotFound, and a reader that outlives a
// Compact fails rather than read the rewritten log.
func TestReaderReadsValueInPlace(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	s.Put("a", []byte("first value"))
	s.Put("b", []byte("second value"))
	r, err := s.Reader("b")
	if err != nil {
		t.Fatalf("Reader: %v", err)
	}
	got, err := io.ReadAll(r)
	if err != nil || string(got) != "second value" {
		t.Fatalf("Reader read %q, %v; want \"second value\"", got, err)
	}
	if _, err := s.Reader("nope"); err != ErrNotFound {
		t.Fatalf("Reader(missing) err = %v, want ErrNotFound", err)
	}
	stale, err := s.Reader("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(stale); err == nil {
		t.Fatalf("a reader opened before Compact read %q after it", got)
	}
}

func TestOverwrite(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	s.Put("k", []byte("old"))
	s.Put("k", []byte("new"))
	got, _ := s.Get("k")
	if string(got) != "new" {
		t.Fatalf("Get after overwrite = %q", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestDelete(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	s.Put("k", []byte("v"))
	if err := s.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get("k"); err != ErrNotFound {
		t.Fatal("key survived delete")
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Fatalf("Delete(missing): %v", err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	s, path := openTemp(t)
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("key%d", i), []byte(fmt.Sprintf("val%d", i)))
	}
	s.Delete("key7")
	s.Put("key3", []byte("updated"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 49 {
		t.Fatalf("Len after reopen = %d, want 49", s2.Len())
	}
	if _, err := s2.Get("key7"); err != ErrNotFound {
		t.Fatal("deleted key resurrected on reopen")
	}
	got, _ := s2.Get("key3")
	if string(got) != "updated" {
		t.Fatalf("key3 = %q, want updated", got)
	}
	// Writes after reopen must work.
	if err := s2.Put("fresh", []byte("x")); err != nil {
		t.Fatalf("Put after reopen: %v", err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	s, path := openTemp(t)
	s.Put("good", []byte("value"))
	s.Close()

	// Simulate a crash mid-write: append half a record.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.Write([]byte{opPut, 5, 0, 0})
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer s2.Close()
	got, err := s2.Get("good")
	if err != nil || string(got) != "value" {
		t.Fatalf("intact record lost: %q %v", got, err)
	}
	// The store must be writable after truncation.
	if err := s2.Put("after", []byte("crash")); err != nil {
		t.Fatalf("Put after truncate: %v", err)
	}
	got, _ = s2.Get("after")
	if string(got) != "crash" {
		t.Fatal("write after truncation corrupted")
	}
}

func TestCorruptChecksumDropsTail(t *testing.T) {
	s, path := openTemp(t)
	s.Put("a", []byte("1"))
	off := s.SizeOnDisk()
	s.Put("b", []byte("2"))
	s.Close()

	// Flip a bit inside the second record's value.
	data, _ := os.ReadFile(path)
	data[off+10] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen with corrupt record: %v", err)
	}
	defer s2.Close()
	if _, err := s2.Get("a"); err != nil {
		t.Fatal("record before corruption lost")
	}
	if _, err := s2.Get("b"); err != ErrNotFound {
		t.Fatal("corrupt record served")
	}
}

func TestCompact(t *testing.T) {
	s, path := openTemp(t)
	payload := bytes.Repeat([]byte("x"), 1000)
	for i := 0; i < 20; i++ {
		s.Put("churn", payload) // 19 garbage versions
	}
	s.Put("keep", []byte("small"))
	before, live := s.SizeOnDisk(), s.LiveBytes()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.SizeOnDisk()
	if after >= before/2 {
		t.Fatalf("compaction ineffective: %d -> %d", before, after)
	}
	if after != live || s.LiveBytes() != live {
		t.Fatalf("compacted log is %d bytes (LiveBytes %d), LiveBytes predicted %d", after, s.LiveBytes(), live)
	}
	got, err := s.Get("churn")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatal("live value lost in compaction")
	}
	// Store must remain usable and durable after compaction.
	s.Put("post", []byte("compact"))
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer s2.Close()
	if got, _ := s2.Get("post"); string(got) != "compact" {
		t.Fatal("post-compaction write lost")
	}
	if got, _ := s2.Get("keep"); string(got) != "small" {
		t.Fatal("compacted value lost after reopen")
	}
}

func TestKeysSorted(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	for _, k := range []string{"zebra", "apple", "mango"} {
		s.Put(k, []byte(k))
	}
	keys := s.Keys()
	want := []string{"apple", "mango", "zebra"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				got, err := s.Get(key)
				if err != nil || string(got) != key {
					t.Errorf("Get(%s) = %q, %v", key, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("Len = %d, want 400", s.Len())
	}
}

// Property: any sequence of puts round-trips through close/reopen.
func TestRoundTripProperty(t *testing.T) {
	f := func(keys [][]byte, vals [][]byte) bool {
		dir := t.TempDir()
		path := filepath.Join(dir, "p.log")
		s, err := Open(path)
		if err != nil {
			return false
		}
		want := make(map[string][]byte)
		for i, kb := range keys {
			if len(vals) == 0 {
				break
			}
			k := string(kb)
			v := vals[i%len(vals)]
			if err := s.Put(k, v); err != nil {
				return false
			}
			want[k] = v
		}
		s.Close()
		s2, err := Open(path)
		if err != nil {
			return false
		}
		defer s2.Close()
		if s2.Len() != len(want) {
			return false
		}
		for k, v := range want {
			got, err := s2.Get(k)
			if err != nil || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPut(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.log")
	s, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte("v"), 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("key%d", i), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.log")
	s, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte("v"), 512)
	for i := 0; i < 1000; i++ {
		s.Put(fmt.Sprintf("key%d", i), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(fmt.Sprintf("key%d", i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}
