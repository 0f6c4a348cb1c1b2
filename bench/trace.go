package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/llmsim"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vecmath"
)

// Span names. The layer view is computed from these alone.
const (
	spanClient      = "client.request"      // client-observed round trip
	spanHandler     = "server.handler"      // time inside Server.Handler()
	spanEncodeOuter = "embed.encode_outer"  // one Encode call as the tenant sees it, batcher wait included
	spanEncodeInner = "embed.encode_inner"  // one call on the model itself; N = texts in the call
	spanSearch      = "cache.search"        // one Searcher.FindSimilar; N = candidates returned
	spanLLM         = "llmsim.call"         // one upstream call; N = simulated inference time in ns
	spanTenantBuild = "server.tenant_build" // one TenantFactory call
	spanStorePrefix = "store."              // one store.FS or store.File call; N = bytes moved
	spanStoreFsync  = "store.fsync"
	spanStoreWrite  = "store.write"
	spanStoreRead   = "store.read"
)

// span is one timed interval at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // span id (its line number in the JSONL, from 0); -1 = root
	Req    int32  `json:"req"`    // request id shared by every span of a request; -1 = none in flight
	N      int64  `json:"n,omitempty"`
}

// inflight is what the tracer knows about a request between the client
// writing it and reading its reply.
type inflight struct {
	user    string
	client  int32 // the request's client.request span
	handler int32 // its server.handler span, -1 before the handler runs
	outer   int32 // its open embed.encode_outer span, -1 when none
}

// tracer records spans in memory and attributes work at seams that carry
// no context to the request that caused it. Two closed-loop clients mean
// at most two requests are in flight, so one mutex is not a bottleneck
// and the tables stay tiny.
type tracer struct {
	epoch time.Time
	// shardOf is Registry.ShardFor, set once the registry exists: an
	// eviction persists a victim tenant on behalf of whichever in-flight
	// request is activating a tenant on the victim's shard.
	shardOf func(user string) int

	mu     sync.Mutex
	spans  []span
	reqs   map[int32]*inflight
	byText map[string][]int32 // query and context-turn texts → requests in flight with them
	byUser map[string]int32   // one request per user: each user belongs to one closed-loop client
	byBuf  map[*float32]int32 // probe embedding buffer → the request that encoded into it
	// lastPathReq is the request of the latest store call whose path
	// named a tenant.
	lastPathReq int32
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, 0, 1<<18),
		reqs:   make(map[int32]*inflight),
		byText: make(map[string][]int32),
		byUser: make(map[string]int32),
		byBuf:  make(map[*float32]int32),

		lastPathReq: -1,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span; the caller holds t.mu.
func (t *tracer) open(name string, parent, req int32) int32 {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// begin starts a child of req's handler span (a root span if req is -1).
func (t *tracer) begin(name string, req int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if f := t.reqs[req]; f != nil {
		parent = f.handler
	}
	return t.open(name, parent, req)
}

func (t *tracer) end(id int32, n int64) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End, t.spans[id].N = now, n
	t.mu.Unlock()
}

// before is called by the client before it writes a request: it
// registers the request and the texts the server will encode for it (the
// query and, in a session, the earlier turns the context check
// re-encodes).
func (t *tracer) before(id int, req *request, history []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := int32(id)
	user := userID(req.User)
	t.reqs[r] = &inflight{user: user, client: t.open(spanClient, -1, r), handler: -1, outer: -1}
	t.byUser[user] = r
	t.byText[req.Query] = append(t.byText[req.Query], r)
	for _, turn := range history {
		t.byText[turn] = append(t.byText[turn], r)
	}
}

// after is called by the client once it has read the reply.
func (t *tracer) after(id int, req *request, history []string) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	r := int32(id)
	f := t.reqs[r]
	t.spans[f.client].End = now
	delete(t.reqs, r)
	if t.byUser[f.user] == r {
		delete(t.byUser, f.user)
	}
	t.dropText(req.Query, r)
	for _, turn := range history {
		t.dropText(turn, r)
	}
	for buf, owner := range t.byBuf {
		if owner == r {
			delete(t.byBuf, buf)
		}
	}
}

func (t *tracer) dropText(text string, r int32) {
	ids := t.byText[text]
	for i, id := range ids {
		if id == r {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(t.byText, text)
	} else {
		t.byText[text] = ids
	}
}

// reqByText resolves a text to the request in flight with it. When both
// clients have the same text in flight (generic follow-ups such as "make
// it bigger") the first is taken: the two spans have the same cost, so
// the layer means are unaffected and only the JSONL's request id can be
// swapped between the pair.
func (t *tracer) reqByText(text string) int32 {
	if ids := t.byText[text]; len(ids) > 0 {
		return ids[0]
	}
	return -1
}

// reqByPath resolves a persistence path to the request doing the I/O:
// the tenant's own request on a reload, and on an eviction the in-flight
// request whose tenant shares the victim's registry shard. A path that
// names no tenant (the persist directory itself, in MkdirAll and SyncDir)
// belongs to the request of the store call just before it: persistence
// runs its calls back to back on the handler's goroutine.
func (t *tracer) reqByPath(path string) int32 {
	base := filepath.Base(path)
	i := strings.Index(base, ".cache")
	if i < 0 {
		return t.lastPathReq
	}
	raw, err := hex.DecodeString(base[:i])
	if err != nil {
		return t.lastPathReq
	}
	user := string(raw)
	req, ok := t.byUser[user]
	if !ok {
		req = -1
		for u, r := range t.byUser {
			if t.shardOf(u) == t.shardOf(user) {
				req = r
				break
			}
		}
	}
	t.lastPathReq = req
	return req
}

// writeJSONL writes every span, one JSON object per line, in span-id
// order.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// middleware is the Server.Wrap seam: the handler span of the request
// named by the X-Bench-Req header. Other routes pass through untimed.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(reqIDHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		req := int32(id)
		t.mu.Lock()
		f := t.reqs[req]
		if f == nil {
			t.mu.Unlock()
			next.ServeHTTP(w, r)
			return
		}
		sp := t.open(spanHandler, f.client, req)
		f.handler = sp
		t.mu.Unlock()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, req)))
		t.end(sp, 0)
	})
}

type reqKey struct{}

// tracedModel times the encoder itself, inside the micro-batcher: busy
// time, with no queueing in it.
type tracedModel struct {
	m *embed.Model
	t *tracer
}

// The batcher asserts its encoder for EncodeBatch and falls back to
// embed.EncodeInto's IntoEncoder; the decorator forwards both, so the
// batched and pooled paths that run in production run here.
var (
	_ embed.Encoder     = tracedModel{}
	_ embed.IntoEncoder = tracedModel{}
	_ interface {
		EncodeBatch([]string) *vecmath.Matrix
	} = tracedModel{}
)

func (e tracedModel) Dim() int     { return e.m.Dim() }
func (e tracedModel) Name() string { return e.m.Name() }

func (e tracedModel) inner(text string) int32 {
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	req := e.t.reqByText(text)
	parent := int32(-1)
	if f := e.t.reqs[req]; f != nil {
		parent = f.outer
	}
	return e.t.open(spanEncodeInner, parent, req)
}

func (e tracedModel) Encode(text string) []float32 {
	sp := e.inner(text)
	out := e.m.Encode(text)
	e.t.end(sp, 1)
	return out
}

func (e tracedModel) EncodeInto(text string, dst []float32) []float32 {
	sp := e.inner(text)
	out := e.m.EncodeInto(text, dst)
	e.t.end(sp, 1)
	return out
}

func (e tracedModel) EncodeBatch(texts []string) *vecmath.Matrix {
	sp := e.inner(texts[0])
	out := e.m.EncodeBatch(texts)
	e.t.end(sp, int64(len(texts)))
	return out
}

// tracedBatcher times an encode as a tenant sees it: the batcher's
// gather wait plus the model's busy time.
type tracedBatcher struct {
	b *server.Batcher
	t *tracer
}

var (
	_ embed.Encoder     = tracedBatcher{}
	_ embed.IntoEncoder = tracedBatcher{}
)

func (e tracedBatcher) Dim() int     { return e.b.Dim() }
func (e tracedBatcher) Name() string { return e.b.Name() }

func (e tracedBatcher) outer(text string) (sp, req int32) {
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	req = e.t.reqByText(text)
	parent := int32(-1)
	f := e.t.reqs[req]
	if f != nil {
		parent = f.handler
	}
	sp = e.t.open(spanEncodeOuter, parent, req)
	if f != nil {
		f.outer = sp
	}
	return sp, req
}

func (e tracedBatcher) Encode(text string) []float32 {
	sp, _ := e.outer(text)
	out := e.b.Encode(text)
	e.t.end(sp, 1)
	return out
}

func (e tracedBatcher) EncodeInto(text string, dst []float32) []float32 {
	sp, req := e.outer(text)
	out := e.b.EncodeInto(text, dst)
	e.t.end(sp, 1)
	if len(out) > 0 {
		// The search that follows is handed this buffer and nothing else.
		e.t.mu.Lock()
		e.t.byBuf[&out[0]] = req
		e.t.mu.Unlock()
	}
	return out
}

// tracedSearcher times a similarity search as core.Client.Lookup sees it,
// the search batcher's hand-off included.
type tracedSearcher struct {
	s cache.Searcher
	t *tracer
}

var _ cache.Searcher = tracedSearcher{}

func (s tracedSearcher) FindSimilar(c *cache.Cache, emb []float32, k int, tau float32, dst []cache.Match) []cache.Match {
	req := int32(-1)
	if len(emb) > 0 {
		s.t.mu.Lock()
		if r, ok := s.t.byBuf[&emb[0]]; ok {
			req = r
		}
		s.t.mu.Unlock()
	}
	sp := s.t.begin(spanSearch, req)
	out := s.s.FindSimilar(c, emb, k, tau, dst)
	s.t.end(sp, int64(len(out)))
	return out
}

// tracedLLM times the upstream call on the miss path.
type tracedLLM struct {
	s *llmsim.Service
	t *tracer
}

// core.Client prefers ContextLLM when its LLM has it; llmsim.Service
// does, so the decorator must.
var (
	_ core.LLM        = tracedLLM{}
	_ core.ContextLLM = tracedLLM{}
)

func (l tracedLLM) Query(q string) (string, time.Duration) {
	resp, took, _ := l.QueryContext(context.Background(), q)
	return resp, took
}

func (l tracedLLM) QueryContext(ctx context.Context, q string) (string, time.Duration, error) {
	req, ok := ctx.Value(reqKey{}).(int32)
	if !ok {
		req = -1
	}
	sp := l.t.begin(spanLLM, req)
	resp, took, err := l.s.QueryContext(ctx, q)
	l.t.end(sp, int64(took))
	return resp, took, err
}

// factory wraps a TenantFactory with the tenant-build span.
func (t *tracer) factory(next server.TenantFactory) server.TenantFactory {
	return func(userID string) *core.Client {
		t.mu.Lock()
		req, ok := t.byUser[userID]
		if !ok {
			req = -1
		}
		t.mu.Unlock()
		sp := t.begin(spanTenantBuild, req)
		c := next(userID)
		t.end(sp, 0)
		return c
	}
}

// tracedFS times every filesystem call persistence makes. The store's
// gob encoding and record framing happen outside these calls and stay in
// the handler's self time.
type tracedFS struct {
	fs store.FS
	t  *tracer
}

var _ store.FS = tracedFS{}

func (f tracedFS) op(name, path string) int32 {
	f.t.mu.Lock()
	req := f.t.reqByPath(path)
	f.t.mu.Unlock()
	return f.t.begin(spanStorePrefix+name, req)
}

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	sp := f.op("open", name)
	file, err := f.fs.OpenFile(name, flag, perm)
	f.t.end(sp, 0)
	if err != nil {
		return nil, err
	}
	return tracedFile{f: file, fs: f, path: name}, nil
}

func (f tracedFS) Rename(oldpath, newpath string) error {
	sp := f.op("rename", oldpath)
	defer f.t.end(sp, 0)
	return f.fs.Rename(oldpath, newpath)
}

func (f tracedFS) Remove(name string) error {
	sp := f.op("remove", name)
	defer f.t.end(sp, 0)
	return f.fs.Remove(name)
}

func (f tracedFS) MkdirAll(dir string, perm os.FileMode) error {
	sp := f.op("mkdir", dir)
	defer f.t.end(sp, 0)
	return f.fs.MkdirAll(dir, perm)
}

func (f tracedFS) Stat(name string) (os.FileInfo, error) {
	sp := f.op("stat", name)
	defer f.t.end(sp, 0)
	return f.fs.Stat(name)
}

func (f tracedFS) ReadDir(dir string) ([]os.DirEntry, error) {
	sp := f.op("readdir", dir)
	defer f.t.end(sp, 0)
	return f.fs.ReadDir(dir)
}

func (f tracedFS) SyncDir(dir string) error {
	sp := f.op("fsync", dir)
	defer f.t.end(sp, 0)
	return f.fs.SyncDir(dir)
}

type tracedFile struct {
	f    store.File
	fs   tracedFS
	path string
}

var _ store.File = tracedFile{}

func (f tracedFile) Write(p []byte) (int, error) {
	sp := f.fs.op("write", f.path)
	n, err := f.f.Write(p)
	f.fs.t.end(sp, int64(n))
	return n, err
}

func (f tracedFile) ReadAt(p []byte, off int64) (int, error) {
	sp := f.fs.op("read", f.path)
	n, err := f.f.ReadAt(p, off)
	f.fs.t.end(sp, int64(n))
	return n, err
}

func (f tracedFile) Sync() error {
	sp := f.fs.op("fsync", f.path)
	defer f.fs.t.end(sp, 0)
	return f.f.Sync()
}

func (f tracedFile) Close() error {
	sp := f.fs.op("close", f.path)
	defer f.fs.t.end(sp, 0)
	return f.f.Close()
}

func (f tracedFile) Truncate(size int64) error {
	sp := f.fs.op("truncate", f.path)
	defer f.fs.t.end(sp, 0)
	return f.f.Truncate(size)
}

func (f tracedFile) Seek(offset int64, whence int) (int64, error) {
	sp := f.fs.op("seek", f.path)
	defer f.fs.t.end(sp, 0)
	return f.f.Seek(offset, whence)
}
