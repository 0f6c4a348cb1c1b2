package main

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/llmsim"
	"repro/internal/store"
	"repro/internal/vecmath"
)

// hashEncoder embeds a text as a unit vector derived from its hash.
type hashEncoder struct{}

func (hashEncoder) Encode(text string) []float32 {
	h := fnv.New64a()
	h.Write([]byte(text))
	sum := h.Sum64()
	v := make([]float32, 32)
	v[sum%32] += 0.8
	v[(sum/32)%32] += 0.6
	vecmath.Normalize(v)
	return v
}
func (hashEncoder) Dim() int     { return 32 }
func (hashEncoder) Name() string { return "hash" }

// TestCacheFileStaysBoundedAcrossSessions: five sessions restore one
// 50-entry cache from the file and save it back. Each save appends the
// whole cache, so without compaction the file grows by the cache every
// session; it must stay within twice its live bytes and still restore
// all 50 entries.
func TestCacheFileStaysBoundedAcrossSessions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meancache.db")
	for session := 0; session < 5; session++ {
		client := core.New(core.Options{Encoder: hashEncoder{}, LLM: llmsim.New(llmsim.DefaultConfig()), Tau: 0.8, Policy: cache.LRU{}})
		st, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := cache.LoadFrom(st, 32, 0, cache.LRU{})
		if err != nil {
			t.Fatal(err)
		}
		if want := min(session, 1) * 50; loaded.Len() != want {
			t.Fatalf("session %d restored %d entries, want %d", session, loaded.Len(), want)
		}
		restore(client, loaded)
		if session == 0 {
			for i := 0; i < 50; i++ {
				if _, err := client.Insert(fmt.Sprintf("question %d", i), fmt.Sprintf("answer %d", i), cache.NoParent); err != nil {
					t.Fatal(err)
				}
			}
		}
		persist(client, st, path)
		size, live := st.SizeOnDisk(), st.LiveBytes()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("session %d: log %d bytes, %d live", session, size, live)
		if size > 2*live {
			t.Fatalf("session %d: log is %d bytes for %d live bytes (over twice)", session, size, live)
		}
	}
}
