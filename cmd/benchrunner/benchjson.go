package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/benchfix"
	"repro/internal/cache"
	"repro/internal/embed"
	"repro/internal/server"
	"repro/internal/stack"
	"repro/internal/vecmath"
)

// The -bench-json mode measures the serving hot paths (not the paper
// replays: those live in the root bench_test.go) and writes the results
// as JSON, so CI and successive PRs can track a machine-readable
// performance trajectory.

// benchResult is one serialised benchmark row.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchReport is the file layout of BENCH_serving.json.
type benchReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	// CalibrationNs is the ns/op of a fixed workload private to this
	// tool (see calibrate), recorded so bench-diff can normalise away
	// machine-speed differences — CI runners and shared VMs vary well
	// beyond any useful regression bar.
	CalibrationNs float64       `json:"calibration_ns,omitempty"`
	Results       []benchResult `json:"results"`
}

// calibrate measures the reference workload: a scalar dot-product sweep
// over a fixed in-tool array — deliberately NOT a call into the library
// under test, so a kernel regression can never hide by slowing the
// yardstick with it.
func calibrate() float64 {
	const rows, dim = 4096, 64
	data := make([]float32, rows*dim)
	x := float32(1)
	for i := range data {
		x = x*1.0001 + 0.001 // deterministic, denormal-free fill
		data[i] = x
	}
	probe := data[:dim]
	out := make([]float32, rows)
	r := testing.Benchmark(func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for row := 0; row < rows; row++ {
				var s0, s1, s2, s3 float32
				v := data[row*dim : (row+1)*dim]
				for j := 0; j+4 <= dim; j += 4 {
					s0 += probe[j] * v[j]
					s1 += probe[j+1] * v[j+1]
					s2 += probe[j+2] * v[j+2]
					s3 += probe[j+3] * v[j+3]
				}
				out[row] = s0 + s1 + s2 + s3
			}
		}
	})
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

type servingBench struct {
	name string
	fn   func(b *testing.B)
}

func runBenchJSON(outPath string) error {
	benches := servingBenches()
	report := benchReport{
		GeneratedAt:   time.Now().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		CalibrationNs: calibrate(),
	}
	fmt.Fprintf(os.Stderr, "[bench] calibration %.0f ns/op\n", report.CalibrationNs)
	for _, sb := range benches {
		fmt.Fprintf(os.Stderr, "[bench] %s...\n", sb.name)
		r := testing.Benchmark(sb.fn)
		report.Results = append(report.Results, benchResult{
			Name:        sb.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Fprintf(os.Stderr, "[bench] %s: %.0f ns/op (%d iters)\n",
			sb.name, report.Results[len(report.Results)-1].NsPerOp, r.N)
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(outPath, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[bench] wrote %d results to %s\n", len(report.Results), outPath)
	return nil
}

func servingBenches() []servingBench {
	return []servingBench{
		{"EncodeMPNetSim", benchEncode},
		{"EncodeBatch32MPNetSim", benchEncodeBatch},
		{"CacheFindSimilar768x1000", benchFindSimilar},
		{"CacheReembed768x500", benchReembed},
		{"ServerQueryHit", benchServerQueryHit},
		{"ServerQueryHitBatched", benchServerQueryHitBatched},
		{"ServerQueryHitDirect", benchServerQueryHitDirect},
		{"ServerQueryHitTraced", benchServerQueryHitTraced},
		{"IndexScan64x20k", benchIndexTier("scan")},
		{"IndexIVF64x20k", benchIndexTier("ivf")},
		{"IndexHNSW64x20k", benchIndexTier("hnsw")},
		{"IndexHNSWInt8_64x20k", benchIndexTier("hnsw-int8")},
		{"ScanDotKernel64x20k", benchScanDotKernel},
		{"ScanDotMulti8x64x20k", benchScanDotMulti},
	}
}

// benchIndexTier measures the large-tenant similarity-search path through
// the cache on the shared benchfix operating point (20k entries × 64
// dims), identical to bench_test.go's BenchmarkLargeCacheSearch.
func benchIndexTier(tier string) func(b *testing.B) {
	return func(b *testing.B) {
		c, probe, err := benchfix.LargeTenantCache(tier)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.FindSimilar(probe, 5, 0.8)
		}
	}
}

func benchEncode(b *testing.B) {
	m := embed.NewModel(embed.MPNetSim, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Encode("how do i rotate the api credentials for the billing service")
	}
}

func benchEncodeBatch(b *testing.B) {
	m := embed.NewModel(embed.MPNetSim, 1)
	texts := make([]string, 32)
	for i := range texts {
		texts[i] = fmt.Sprintf("query %d about rotating api credentials", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EncodeBatch(texts)
	}
}

func benchFindSimilar(b *testing.B) {
	m := embed.NewModel(embed.MPNetSim, 1)
	c := cache.New(m.Dim(), 0, cache.LRU{})
	for i := 0; i < 1000; i++ {
		q := fmt.Sprintf("cached question number %d", i)
		if _, err := c.Put(q, "r", m.Encode(q), cache.NoParent); err != nil {
			b.Fatal(err)
		}
	}
	probe := m.Encode("cached question number 500")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.FindSimilar(probe, 5, 0.8)
	}
}

func benchReembed(b *testing.B) {
	m := embed.NewModel(embed.MPNetSim, 1)
	c := cache.New(m.Dim(), 0, cache.LRU{})
	for i := 0; i < 500; i++ {
		q := fmt.Sprintf("cached question number %d", i)
		if _, err := c.Put(q, "r", m.Encode(q), cache.NoParent); err != nil {
			b.Fatal(err)
		}
	}
	m2 := embed.NewModel(embed.MPNetSim, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reembed(m2.Encode); err != nil {
			b.Fatal(err)
		}
	}
}

// newHitServer assembles the single-tenant hit-path fixture: a
// stack.Default() cacheserve (untrained encoder, in-process virtual-time
// upstream) with the search batcher off, adjusted by mod when non-nil,
// and one warmed cached query.
func newHitServer(b *testing.B, mod func(*stack.Config)) (http.Handler, *httptest.Server, []byte) {
	cfg := stack.Default()
	// A search batcher hop belongs to the one row that turns it back on.
	cfg.NoSearchBatch = true
	if mod != nil {
		mod(&cfg)
	}
	st, err := stack.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(st.Handler())
	b.Cleanup(ts.Close)
	body, _ := json.Marshal(server.QueryRequest{User: "u", Query: "warm question"})
	// Warm the cache so the measured path is a hit.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	return st.Handler(), ts, body
}

// benchServerQueryHit measures the full server request lifecycle over a
// socket: one persistent connection, a precomputed request, responses
// drained through a fixed buffer. The hand-rolled keep-alive client
// keeps net/http *client* allocation noise (request construction, header
// cloning, response parsing — ~50 allocs/op) out of a row whose subject
// is the server; the remaining per-op allocations are the server's
// accept-to-respond path.
func benchServerQueryHit(b *testing.B) {
	_, ts, body := newHitServer(b, nil)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	req := []byte(fmt.Sprintf("POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	br := bufio.NewReader(conn)
	readResp := func() {
		cl := -1
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				b.Fatal(err)
			}
			if len(line) <= 2 {
				break
			}
			if bytes.HasPrefix(line, []byte("Content-Length: ")) {
				cl = 0
				for _, c := range line[16 : len(line)-2] {
					cl = cl*10 + int(c-'0')
				}
			}
		}
		if cl < 0 {
			b.Fatal("response without Content-Length")
		}
		if _, err := br.Discard(cl); err != nil {
			b.Fatal(err)
		}
	}
	conn.Write(req)
	readResp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		readResp()
	}
}

// benchServerQueryHitBatched is the handler hit path with the per-tenant
// search batcher wired in, driven in parallel so concurrent requests
// against the one tenant genuinely coalesce into multi-probe index
// passes. Pinned in benchdiff so the batched route's latency and
// allocation count stay budgeted alongside the direct route's.
func benchServerQueryHitBatched(b *testing.B) {
	h, _, body := newHitServer(b, func(cfg *stack.Config) { cfg.NoSearchBatch = false })
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rdr := bytes.NewReader(body)
		req := httptest.NewRequest("POST", "/v1/query", rdr)
		req.Header.Set("Content-Type", "application/json")
		rc := readerNopCloser{rdr}
		w := &discardResponseWriter{h: make(http.Header)}
		for pb.Next() {
			rdr.Seek(0, 0)
			req.Body = rc
			h.ServeHTTP(w, req)
		}
	})
}

// benchServerQueryHitDirect measures the uninstrumented handler (see
// benchHandlerHit).
func benchServerQueryHitDirect(b *testing.B) {
	h, _, body := newHitServer(b, nil)
	benchHandlerHit(b, h, body)
}

// benchServerQueryHitTraced is the direct hit path with observability
// fully on — metrics registered and every request traced (sample rate
// 1, the worst case: each query records spans and publishes into the
// ring). Pinned in benchdiff so instrumentation overhead stays bounded.
func benchServerQueryHitTraced(b *testing.B) {
	h, _, body := newHitServer(b, func(cfg *stack.Config) {
		cfg.Metrics = true
		cfg.Trace.SampleRate = 1
	})
	benchHandlerHit(b, h, body)
}

// benchHandlerHit drives the handler in isolation — no sockets, no
// net/http connection machinery: decode, tenant lookup, encode, pruned
// search, respond. This is the pooled request lifecycle itself; after
// warmup it runs in single-digit allocations.
func benchHandlerHit(b *testing.B, h http.Handler, body []byte) {
	rdr := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/query", rdr)
	req.Header.Set("Content-Type", "application/json")
	rc := readerNopCloser{rdr}
	w := &discardResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rdr.Seek(0, 0)
		req.Body = rc
		h.ServeHTTP(w, req)
	}
}

type readerNopCloser struct{ *bytes.Reader }

func (readerNopCloser) Close() error { return nil }

// discardResponseWriter satisfies http.ResponseWriter without buffering,
// so the direct benchmark measures the handler, not a recorder.
type discardResponseWriter struct {
	h    http.Header
	code int
}

func (d *discardResponseWriter) Header() http.Header         { return d.h }
func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponseWriter) WriteHeader(code int)        { d.code = code }

// benchScanDotKernel measures the raw blocked scan kernel at the
// large-tenant operating point: one probe against 20k contiguous rows.
func benchScanDotKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	probe := randRow(rng, benchfix.LargeTenantDim)
	rows := make([]float32, benchfix.LargeTenantN*benchfix.LargeTenantDim)
	for i := range rows {
		rows[i] = float32(rng.NormFloat64())
	}
	out := make([]float32, benchfix.LargeTenantN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecmath.ScanDot(probe, rows, out)
	}
}

// benchScanDotMulti measures the multi-probe kernel: an 8-probe
// micro-batch scored in one pass over the same 20k rows.
func benchScanDotMulti(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	probes := make([]float32, 8*benchfix.LargeTenantDim)
	for i := range probes {
		probes[i] = float32(rng.NormFloat64())
	}
	rows := make([]float32, benchfix.LargeTenantN*benchfix.LargeTenantDim)
	for i := range rows {
		rows[i] = float32(rng.NormFloat64())
	}
	out := make([]float32, 8*benchfix.LargeTenantN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecmath.ScanDotMulti(probes, rows, out, 8)
	}
}

func randRow(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}
