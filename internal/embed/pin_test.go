package embed

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
)

// TestPinnedEncodesBitIdentically: a pinned model encodes every text of
// the encoder goldens (TestEncodeMatchesPerRowDot's) to exactly the
// bits its heap model gives, alone and in a batch.
func TestPinnedEncodesBitIdentically(t *testing.T) {
	texts := []string{
		"",
		"draw a line plot in python",
		"How can I increase the battery life of my smartphone?",
		"what is federated learning",
		"résumé naïve café — ünïcödé tokens",
		"rotate the api credentials for the staging cluster before friday and notify the on-call engineer",
	}
	for _, cfg := range []Arch{MPNetSim, AlbertSim} {
		m := NewModel(cfg, 7)
		p, release := Pin(m)
		if p == m {
			t.Skipf("no anonymous mappings on %s: Pin keeps the heap model", runtime.GOOS)
		}
		defer release()
		batch := p.EncodeBatch(texts)
		for i, text := range texts {
			want := m.Encode(text)
			for name, got := range map[string][]float32{"Encode": p.Encode(text), "EncodeBatch": batch.Row(i)} {
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("%s pinned %s(%q)[%d] = %v, heap model gives %v", cfg.Name, name, text, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// heapLive is the heap a fresh GC marked live. The first of its two
// collections empties the sync.Pool victim caches the second then frees.
func heapLive() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// TestPinnedWeightsLeaveHeap: holding a pinned mpnet-sim model adds less
// than 1 MiB to the live heap, where holding its heap model adds its
// 13.2 MB of weights; PinnedBytes counts the mapping until release.
func TestPinnedWeightsLeaveHeap(t *testing.T) {
	base := heapLive()
	m := NewModel(MPNetSim, 3)
	weights := int64(4 * m.WeightCount())
	heapGrew := heapLive() - base
	if heapGrew < weights {
		t.Fatalf("a heap model grew the live heap by %d bytes, less than its %d bytes of weights", heapGrew, weights)
	}
	pinnedBefore := PinnedBytes()
	p, release := Pin(m)
	if p == m {
		t.Skipf("no anonymous mappings on %s", runtime.GOOS)
	}
	defer release()
	m = nil
	grew := heapLive() - base
	t.Logf("live heap above baseline: heap model %d bytes, pinned model %d bytes", heapGrew, grew)
	if grew > 1<<20 {
		t.Errorf("holding only the pinned model, the live heap is %d bytes above baseline, want under 1 MiB", grew)
	}
	if got := PinnedBytes() - pinnedBefore; got != weights {
		t.Errorf("PinnedBytes grew by %d, want the %d bytes of weights", got, weights)
	}
	runtime.KeepAlive(p)
	release()
	release()
	if got := PinnedBytes(); got != pinnedBefore {
		t.Errorf("PinnedBytes = %d after release, want %d", got, pinnedBefore)
	}
}

// TestPinnedWeightsFault runs helper children that touch a pinned model
// where they must not: a write into its weights, and a read after its
// release. Each must die of a memory fault, never finish.
func TestPinnedWeightsFault(t *testing.T) {
	if mode := os.Getenv("GO_WANT_HELPER_PROCESS"); mode != "" {
		m := NewModel(AlbertSim, 1)
		p, release := Pin(m)
		if p == m {
			fmt.Println("not pinned")
			os.Exit(0)
		}
		fmt.Println("pinned")
		switch mode {
		case "write":
			p.E.Data[0] = 1
		case "read-after-release":
			release()
			fmt.Println(p.W.Data[len(p.W.Data)-1])
		}
		fmt.Println("survived")
		os.Exit(0)
	}
	for _, mode := range []string{"write", "read-after-release"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestPinnedWeightsFault$")
		cmd.Env = append(os.Environ(), "GO_WANT_HELPER_PROCESS="+mode)
		out, err := cmd.CombinedOutput()
		if strings.HasPrefix(string(out), "not pinned") {
			t.Skipf("no anonymous mappings on %s", runtime.GOOS)
		}
		if err == nil || !strings.HasPrefix(string(out), "pinned") || strings.Contains(string(out), "survived") ||
			!strings.Contains(string(out), "fatal error: fault") {
			t.Errorf("%s: the child exited with %v and printed:\n%s\nwant a fatal memory fault after \"pinned\"", mode, err, out)
		}
	}
}

// BenchmarkEncodeMPNetSimPinned is BenchmarkEncodeMPNetSim on a pinned
// model: the weights sit in a mapping instead of on the heap.
func BenchmarkEncodeMPNetSimPinned(b *testing.B) {
	m, release := Pin(NewModel(MPNetSim, 1))
	defer release()
	q := "How can I increase the battery life of my smartphone"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Encode(q)
	}
}
