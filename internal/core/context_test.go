package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/embed"
	"repro/internal/index"
	"repro/internal/raceflag"
	"repro/internal/store"
)

// TestRevivedIVFTenantServesFollowUp: a two-turn conversation is cached
// and persisted, then revived into an Adaptive small enough that the
// revived tenant serves from IVF. The follow-up still hits, its context
// check reading the parent's embedding from the IVF tier.
func TestRevivedIVFTenantServesFollowUp(t *testing.T) {
	const dim = 32
	enc := newStub(dim)
	enc.alias(40, "how do i reset my password", "how can i reset my password")
	enc.alias(41, "and on the mobile app?", "what about on the mobile app?")
	enc.alias(42, "what is the weather like")
	llm := &stubLLM{}
	c := New(Options{Encoder: enc, LLM: llm, Tau: 0.9})
	for i := 0; i < 24; i++ {
		if _, err := c.Query(fmt.Sprintf("filler question %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	sess := c.NewSession()
	for _, q := range []string{"how do i reset my password", "and on the mobile app?"} {
		if _, err := sess.Ask(q); err != nil {
			t.Fatal(err)
		}
	}

	st, err := store.Open(filepath.Join(t.TempDir(), "tenant.cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := c.Cache().SaveTo(st); err != nil {
		t.Fatal(err)
	}
	// FlatMax 8: the revival promotes at the 9th entry, and the 26 loaded
	// stay under the regrowth point (4 × 9), so the IVF serving them has
	// isqrt(32) = 6 lists, all of them probed.
	idx := index.NewAdaptive(dim, index.AdaptiveConfig{FlatMax: 8})
	revived, err := cache.LoadFromWithIndex(st, dim, 0, cache.LRU{}, idx)
	if err != nil {
		t.Fatal(err)
	}
	if tier := revived.ServingTier(); tier != "ivf" {
		t.Fatalf("revived tenant of %d entries serves from %q, want ivf", revived.Len(), tier)
	}
	r := NewWithCache(c.Options(), revived)

	if res := r.Lookup("what about on the mobile app?", []string{"how can i reset my password"}); !res.Hit || res.Response != "llm says: and on the mobile app?" {
		t.Fatalf("revived follow-up under its own context: hit %v, response %q", res.Hit, res.Response)
	}
	if res := r.Lookup("what about on the mobile app?", []string{"what is the weather like"}); res.Hit {
		t.Fatal("revived follow-up hit under another conversation's context")
	}
}

// TestContextCheckDuringEvictionAndReembed runs context checks while
// other goroutines evict conversation roots (Remove cascades to the
// follow-up) and re-embed the cache in place. A conversation whose root
// was evicted before a lookup began is never served, and one left alone
// always is: a re-embed batch (Remove + Add in the index) is never seen
// half done.
func TestContextCheckDuringEvictionAndReembed(t *testing.T) {
	const (
		dim    = 32
		stable = 8
		doomed = 32
		rounds = 40
	)
	enc := newStub(dim)
	c := New(Options{Encoder: enc, Tau: 0.8, TopK: 5})
	type conv struct {
		root, follow     string
		rootID, followID int
		evicted          atomic.Bool
	}
	convs := make([]*conv, stable+doomed)
	for i := range convs {
		cv := &conv{root: fmt.Sprintf("root question %d", i), follow: fmt.Sprintf("follow-up %d", i)}
		enc.alias(int64(100+2*i), cv.root)
		enc.alias(int64(101+2*i), cv.follow)
		var err error
		if cv.rootID, err = c.Insert(cv.root, "r", cache.NoParent); err != nil {
			t.Fatal(err)
		}
		if cv.followID, err = c.Insert(cv.follow, "f", cv.rootID); err != nil {
			t.Fatal(err)
		}
		convs[i] = cv
	}

	stop := make(chan struct{})
	var (
		bg   sync.WaitGroup
		done atomic.Int64 // lookups finished
	)
	bg.Add(2)
	go func() { // evict the doomed roots one by one, spread over the lookups
		defer bg.Done()
		for j, cv := range convs[stable:] {
			for done.Load() < int64(j*rounds) {
				runtime.Gosched()
			}
			c.Cache().Remove(cv.rootID)
			cv.evicted.Store(true)
		}
	}()
	go func() { // re-embed in place (same encoder, so stable chains keep matching)
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Cache().Reembed(enc.Encode); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var lookups sync.WaitGroup
	for w := 0; w < 4; w++ {
		lookups.Add(1)
		go func(w int) {
			defer lookups.Done()
			for r := 0; r < rounds; r++ {
				for i := w; i < len(convs); i += 4 {
					cv := convs[i]
					gone := cv.evicted.Load()
					res := c.Lookup(cv.follow, []string{cv.root})
					switch {
					case res.Hit && res.Entry.ID != cv.followID:
						t.Errorf("follow-up %d hit entry %d, want %d", i, res.Entry.ID, cv.followID)
					case res.Hit && gone:
						t.Errorf("follow-up %d served after its root was evicted", i)
					case !res.Hit && i < stable:
						t.Errorf("stable follow-up %d missed during a re-embed", i)
					}
					c.Recycle(&res)
					done.Add(1)
				}
			}
		}(w)
	}
	lookups.Wait()
	close(stop)
	bg.Wait()
	if n := c.Cache().Len(); n != 2*stable {
		t.Fatalf("%d entries left, want the %d of the stable conversations", n, 2*stable)
	}
}

// TestContextualHitAllocs pins what a session follow-up hit — a match
// whose one-turn chain is checked against the submitted context —
// allocates once the pools are warm. Reading the ancestor's embedding
// adds nothing: it is copied into a pooled probe buffer.
func TestContextualHitAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("pooled buffers are intentionally dropped under -race")
	}
	c := New(Options{Encoder: embed.NewModel(embed.MPNetSim, 1), Tau: 0.9, TopK: 5})
	root, err := c.Insert("how do i reset my password", "r1", cache.NoParent)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("and on the mobile app?", "r2", root); err != nil {
		t.Fatal(err)
	}
	history := []string{"how do i reset my password"}
	followUp := func() {
		res := c.Lookup("and on the mobile app?", history)
		if !res.Hit {
			t.Fatal("follow-up missed")
		}
		c.Recycle(&res)
	}
	followUp()
	followUp()
	if n := testing.AllocsPerRun(200, followUp); n > 6 {
		t.Fatalf("contextual hit allocates %v, budget 6", n)
	}
}
