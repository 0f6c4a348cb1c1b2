package index

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// mappable reports whether IVF lists keep their rows in anonymous
// mappings on this platform (rowmem_unix.go).
const mappable = runtime.GOOS == "linux" || runtime.GOOS == "darwin"

// TestIVFListOldMappingFaultsAfterGrow runs a helper child that keeps a
// view of a list's rows across the grow that moves them: the grow
// unmaps the old mapping, so reading the view must kill the child with a
// memory fault rather than return the old bytes.
func TestIVFListOldMappingFaultsAfterGrow(t *testing.T) {
	if !mappable {
		t.Skipf("no anonymous mappings on %s", runtime.GOOS)
	}
	if os.Getenv("GO_WANT_HELPER_PROCESS") == "read-after-grow" {
		rng := rand.New(rand.NewSource(1))
		l := &ivfList{arena: arena{dim: 64}}
		for len(l.ids) == 0 || !l.full() {
			l.add(len(l.ids), unit(rng, 64))
		}
		old := l.vecs
		l.add(len(l.ids), unit(rng, 64))
		fmt.Println("grown")
		fmt.Println(old[0])
		fmt.Println("survived")
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestIVFListOldMappingFaultsAfterGrow$")
	cmd.Env = append(os.Environ(), "GO_WANT_HELPER_PROCESS=read-after-grow")
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.HasPrefix(string(out), "grown") || strings.Contains(string(out), "survived") ||
		!strings.Contains(string(out), "fatal error: fault") {
		t.Errorf("the child exited with %v and printed:\n%s\nwant a fatal memory fault after \"grown\"", err, out)
	}
}

// awaitMapped runs collections until MappedBytes satisfies ok, failing t
// after a deadline. Cleanups run on their own goroutine after the cycle
// that finds their list unreachable, so one GC is not enough.
func awaitMapped(t *testing.T, what string, ok func(int64) bool) int64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := MappedBytes()
		if ok(n) {
			return n
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: MappedBytes still %d after 10 s of collections", what, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// listBytes is the mapped bytes of an IVF's lists.
func listBytes(x *IVF) (n int64) {
	for _, l := range x.lists {
		n += int64(len(l.mem))
	}
	return n
}

// TestDroppedTiersUnmapTheirLists: an Adaptive's mapped bytes are
// exactly its serving IVF's lists — the IVF a regrowth replaced, and
// every mapping a list grew out of, gives its bytes back — and dropping
// the Adaptive returns MappedBytes to its baseline, zero.
func TestDroppedTiersUnmapTheirLists(t *testing.T) {
	if !mappable {
		t.Skipf("no anonymous mappings on %s", runtime.GOOS)
	}
	// No earlier test keeps an IVF reachable, so once their cleanups
	// have run nothing is mapped.
	awaitMapped(t, "before the test", func(n int64) bool { return n == 0 })
	// At 1,024-d a list's first allocation is 8 rows, so lists grow.
	const dim, flatMax = 1024, 16
	rng := rand.New(rand.NewSource(2))
	a := NewAdaptive(dim, AdaptiveConfig{FlatMax: flatMax})
	// Past the first regrowth, and short of the next.
	for id := 0; id < regrowFactor*regrowFactor*(flatMax+1); id++ {
		if err := a.Add(id, unit(rng, dim)); err != nil {
			t.Fatal(err)
		}
	}
	x, ok := a.cur.Load().idx.(*IVF)
	if !ok || a.cur.Load().built <= flatMax+1 {
		t.Fatalf("serving %T built at %d entries, want an IVF regrown past %d", a.cur.Load().idx, a.cur.Load().built, flatMax+1)
	}
	if !slices.ContainsFunc(x.lists, func(l *ivfList) bool { return len(l.ids) > l.firstRows() }) {
		t.Fatal("no list grew past its first allocation")
	}
	live := listBytes(x)
	awaitMapped(t, "after the regrowth and the grows", func(n int64) bool { return n == live })
	runtime.KeepAlive(a) // the last use: a is dropped here
	awaitMapped(t, "after the Adaptive was dropped", func(n int64) bool { return n == 0 })
}
