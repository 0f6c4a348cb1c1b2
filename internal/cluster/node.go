package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/sim"
)

// The health-probe defaults of a Config that leaves them zero: a dead
// peer leaves the ring after DefaultDeadAfter missed probes, about
// 1.5 s at DefaultHeartbeat.
const (
	DefaultHeartbeat = 500 * time.Millisecond
	DefaultDeadAfter = 3
)

// Config assembles a cluster Node around one serving process.
type Config struct {
	// Self is this node's advertised address (host:port) — its identity
	// on the ring and the address peers forward to. Required.
	Self string
	// Peers lists the other nodes' advertised addresses. The membership
	// set is static configuration; health checking decides which members
	// are live (and therefore on the ring) at any moment.
	Peers []string
	// VNodes is the virtual-node count per member (DefaultVNodes when 0).
	VNodes int
	// Registry is the tenant table requests route into. It should be
	// backed by storage all nodes can reach (a shared PersistDir), so a
	// drained tenant's state is visible to its next owner. Required.
	Registry *server.Registry

	// Heartbeat is the peer health-probe period. Defaults to
	// DefaultHeartbeat.
	Heartbeat time.Duration
	// DeadAfter is how many consecutive probe failures mark a peer dead
	// (removing it from the ring). Defaults to DefaultDeadAfter.
	DeadAfter int
	// ProbeTimeout bounds one health probe. Defaults to Heartbeat.
	ProbeTimeout time.Duration

	// ForwardTimeout bounds one forward attempt. Defaults to 5s.
	ForwardTimeout time.Duration
	// ForwardRetries is how many further attempts follow a failed
	// forward (re-resolving the owner between attempts, since a failure
	// often coincides with a membership change). Defaults to 2.
	ForwardRetries int
	// HedgeAfter launches one duplicate attempt when the owner has not
	// answered within this window, taking whichever response lands
	// first. 0 defaults to 10× the heartbeat, capped at half the
	// forward timeout (a hedge armed at the timeout could never win);
	// negative disables hedging.
	HedgeAfter time.Duration
	// HedgeVeto, when non-nil, is consulted as the hedge timer fires; a
	// true return suppresses the duplicate attempt. cacheserve wires it
	// to the resilience governor's saturation signal so an overloaded
	// node stops multiplying its own load.
	HedgeVeto func() bool

	// PeerBreaker, when Window > 0, gives every peer its own circuit
	// breaker over forward outcomes: transport failures trip it, and
	// while it is open forwards to that peer short-circuit to the local
	// fallback instead of burning a timeout per request. The breaker
	// complements the dead-peer counter — it reacts at traffic speed in
	// the window before DeadAfter failures remove the peer from the
	// ring, and its half-open probes re-admit real traffic afterwards.
	PeerBreaker resilience.BreakerConfig

	// DrainWait is the total in-flight-request wait budget of one
	// handoff sweep; tenants still pinned when it runs out retry on a
	// later sweep. Defaults to 2s.
	DrainWait time.Duration
	// SweepEvery is the period of the ownership-reconciliation sweep
	// that drains tenants the node no longer owns (ring changes also
	// trigger a sweep immediately). Defaults to 4× the heartbeat.
	SweepEvery time.Duration

	// Tracer, when non-nil, traces routed requests: the forwarding node
	// records decode/forward spans and stitches in the owner's serving
	// spans (returned in a reply header), and this node records serving
	// spans for forwards that arrive carrying a trace-ID header. Nil
	// disables cluster-layer tracing.
	Tracer *obs.Tracer

	// Client, when non-nil, is used for probes and forwards (tests
	// inject one; production gets a pooled default). Point its Transport
	// at a sim.Transport to run the node over a simulated network.
	Client *http.Client
	// Clock is the node's time source: heartbeat and sweep tickers,
	// hedge timers, probe/forward deadlines, and trace timestamps all
	// run on it. Nil defaults to the wall clock (production); tests
	// inject a sim.VirtualClock to drive membership and handoff in
	// virtual time.
	Clock sim.Clock
	// Logf, when non-nil, receives membership and handoff events.
	Logf func(format string, args ...any)
}

// Node is one member of a cacheserve cluster: it health-checks peers,
// maintains the consistent-hash ring, routes tenant requests to their
// owners, and drains tenants it no longer owns after ring changes.
type Node struct {
	cfg    Config
	ring   atomic.Pointer[Ring]
	ringV  atomic.Uint64
	ringMu sync.Mutex // serializes rebuildRing's read-modify-write
	peers  []*peer

	client *http.Client
	clock  sim.Clock

	stop chan struct{}
	kick chan struct{} // handoff trigger, buffered 1
	wg   sync.WaitGroup

	forwards        atomic.Int64
	forwardErrors   atomic.Int64
	breakerSkips    atomic.Int64
	hedges          atomic.Int64
	hedgesVetoed    atomic.Int64
	localFallbacks  atomic.Int64
	forwardedServed atomic.Int64
	staleForwards   atomic.Int64
	handoffs        atomic.Int64
	handoffBusy     atomic.Int64
	handoffErrors   atomic.Int64
}

// peer tracks one configured peer's health.
type peer struct {
	addr string

	// breaker guards forwards to this peer (nil when Config.PeerBreaker
	// is disabled). Health probes bypass it: the probe loop is how a
	// dead peer is discovered, and the breaker's own half-open probes
	// ride real forwards.
	breaker *resilience.Breaker

	mu       sync.Mutex
	alive    bool
	failures int
	ringV    uint64 // last ring version the peer reported
}

// The cluster's HTTP headers. A forward is the client's request
// re-posted to the owner with the first three; the owner's reply comes
// back with the last two.
const (
	// forwardedHeader marks a request already routed by a peer (its
	// value is the origin's address), so the receiving node serves it
	// locally instead of consulting the ring — routing disagreements
	// must never loop a request between nodes.
	forwardedHeader = "X-Cluster-Forwarded-By"
	// ringVersionHeader is the ring version the origin routed on, in
	// decimal; the owner counts a mismatch with its own as a stale
	// forward (stale_forwards in /v1/cluster/status), a convergence
	// diagnostic.
	ringVersionHeader = "X-Cluster-Ring-Version"
	// traceIDHeader is the origin's trace ID in hex, sent only when the
	// origin traces the request: the owner records its serving spans
	// under the same ID so the origin can stitch one cross-node trace.
	traceIDHeader = "X-Cluster-Trace-Id"
	// servedByHeader names the node that actually served a routed
	// request.
	servedByHeader = "X-Cluster-Served-By"
	// spansHeader carries the owner's serving spans back to a tracing
	// origin: the obs.AppendSpans blob, base64-encoded.
	spansHeader = "X-Cluster-Spans"
)

// relayedHeaders are the owner's reply headers the origin passes on to
// the client. An allow-list, so hop-by-hop headers and Content-Length
// are never relayed.
var relayedHeaders = []string{"Content-Type", "Retry-After", servedByHeader}

const (
	// maxForwardBody caps a routed request body the origin reads to find
	// the tenant (over it, the request is served locally) and an owner's
	// reply it reads to relay.
	maxForwardBody = 4 << 20
	// maxGossipBody caps a peer-status read; maxGossipMembers caps the
	// alive-member list it may carry.
	maxGossipBody    = 1 << 20
	maxGossipMembers = 1 << 10
)

// New builds a Node. The initial ring presumes every configured peer
// alive; the first DeadAfter probe rounds correct that for peers that are
// actually down.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self is required")
	}
	// Self is the node's ring identity AND the address peers dial and
	// verify against gossip replies. A wildcard bind (":8090",
	// "0.0.0.0:…") would make every gossip identity check fail, quietly
	// collapsing each node's ring to itself — a split brain over the
	// shared persist dir. Fail fast instead.
	host, _, err := net.SplitHostPort(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("cluster: Config.Self %q is not host:port: %w", cfg.Self, err)
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		return nil, fmt.Errorf("cluster: Config.Self %q must be the dialable advertised address, not a wildcard bind", cfg.Self)
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("cluster: Config.Registry is required")
	}
	if !cfg.Registry.Persistent() {
		// The handoff sweep drains tenants through the persistence path;
		// without it a ring change would silently destroy tenant state.
		return nil, fmt.Errorf("cluster: the registry must persist tenants (set PersistDir, on storage all nodes share)")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = DefaultDeadAfter
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.Heartbeat
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 5 * time.Second
	}
	if cfg.ForwardRetries < 0 {
		cfg.ForwardRetries = 0
	} else if cfg.ForwardRetries == 0 {
		cfg.ForwardRetries = 2
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = min(10*cfg.Heartbeat, cfg.ForwardTimeout/2)
	}
	if cfg.DrainWait <= 0 {
		cfg.DrainWait = 2 * time.Second
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = 4 * cfg.Heartbeat
	}
	n := &Node{
		cfg:    cfg,
		client: cfg.Client,
		clock:  sim.Or(cfg.Clock),
		stop:   make(chan struct{}),
		kick:   make(chan struct{}, 1),
	}
	if n.client == nil {
		n.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	}
	members := []string{cfg.Self}
	for _, p := range cfg.Peers {
		if p == "" || p == cfg.Self {
			continue
		}
		np := &peer{addr: p, alive: true}
		if cfg.PeerBreaker.Window > 0 {
			np.breaker = resilience.NewBreaker(cfg.PeerBreaker)
		}
		n.peers = append(n.peers, np)
		members = append(members, p)
	}
	sort.Slice(n.peers, func(i, j int) bool { return n.peers[i].addr < n.peers[j].addr })
	n.ring.Store(BuildRing(n.ringV.Add(1), members, cfg.VNodes))
	return n, nil
}

// Ring returns the current ring (immutable; lock-free).
func (n *Node) Ring() *Ring { return n.ring.Load() }

// Self reports the node's advertised address.
func (n *Node) Self() string { return n.cfg.Self }

// Start launches the health-check and handoff loops.
func (n *Node) Start() {
	n.wg.Add(2)
	go n.heartbeatLoop()
	go n.handoffLoop()
}

// Close stops the background loops. It does not drain the registry: a
// graceful shutdown flushes it (as cacheserve does on SIGINT), and peers
// detect the death and remap within DeadAfter heartbeats either way.
func (n *Node) Close() {
	select {
	case <-n.stop:
		return
	default:
	}
	close(n.stop)
	n.wg.Wait()
}

// Register installs the cluster routes — /v1/cluster/status (for humans
// and load generators) and /v1/cluster/gossip (PeerStatus, the
// health-probe endpoint), both JSON — on the serving mux. Forwards need
// no route of their own: they arrive on the serving routes, marked by
// forwardedHeader.
func (n *Node) Register(mux interface {
	Handle(pattern string, handler http.Handler)
}) {
	mux.Handle("GET /v1/cluster/status", http.HandlerFunc(n.handleStatus))
	mux.Handle("GET /v1/cluster/gossip", http.HandlerFunc(n.handleGossip))
}

// routedPaths are the tenant-scoped serving routes the cluster router
// owns placement for, with per-route hedging policy. Everything else
// (stats, health, FL admin, the cluster routes themselves) serves
// locally on whichever node receives it. Queries are idempotent, so a
// slow owner gets a hedged duplicate; feedback mutates τ, so it is
// never hedged — retries and the local fallback still give it
// at-least-once (not exactly-once) semantics, which τ's small clamped
// steps tolerate.
var routedPaths = map[string]struct{ hedge bool }{
	"/v1/query":    {hedge: true},
	"/v1/feedback": {hedge: false},
}

// Wrap returns the routing middleware around the serving mux: requests
// for tenants this node owns pass straight through; requests for tenants
// owned elsewhere are re-posted, body unchanged, to the same route on
// the owner, and the owner's reply is relayed as the owner wrote it. The
// ownership check is one atomic ring load — no locks on the hot path.
func (n *Node) Wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, routed := routedPaths[r.URL.Path]
		if r.Method != http.MethodPost || !routed {
			inner.ServeHTTP(w, r)
			return
		}
		if r.Header.Get(forwardedHeader) != "" {
			n.serveForwarded(inner, w, r)
			return
		}
		var wrapStart time.Time
		if n.cfg.Tracer.Enabled() {
			wrapStart = n.clock.Now()
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxForwardBody+1))
		if err != nil {
			http.Error(w, fmt.Sprintf("cluster: reading request: %v", err), http.StatusBadRequest)
			return
		}
		if len(body) > maxForwardBody {
			// Too large to forward, but not too large to serve: splice
			// the unread remainder back on and serve locally, preserving
			// single-node behavior for owned tenants (and a degraded
			// local serve for the rare over-cap non-owned request).
			r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body), r.Body))
			inner.ServeHTTP(w, r)
			return
		}
		serveLocal := func() {
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
			inner.ServeHTTP(w, r)
		}
		user := peekUser(body)
		owner := n.ring.Load().Owner(user)
		if user == "" || owner == "" || owner == n.cfg.Self {
			serveLocal() // ours (or malformed — let the mux reject it)
			return
		}
		// The forward path gets its own origin-side trace: the serving
		// spans happen on the owner, so without one the request would be
		// invisible here. Owned tenants skip this — the serving handler
		// starts their trace.
		var trace *obs.Trace
		var decodeDur time.Duration
		if n.cfg.Tracer.Enabled() {
			decodeDur = n.clock.Since(wrapStart)
			trace = n.cfg.Tracer.Start(r.URL.Path)
			trace.User = user
			trace.Add(obs.SpanDecode, 0, decodeDur)
		}
		var traceID uint64
		if trace != nil {
			traceID = trace.ID
		}
		fwdStart := n.clock.Now()
		rep, err := n.forward(r.Context(), owner, r.URL.Path, user, body, route.hedge, traceID)
		if err != nil {
			// No owner answered after retries (and, if the failures
			// crossed DeadAfter, the owner is now off the ring). Serving
			// locally keeps the tenant available: the registry revives it
			// from shared storage, and if this node is not the tenant's
			// home on the healed ring, the sweep hands it back off. A
			// request whose forward timed out mid-flight may be processed
			// twice this way — acceptable for an idempotent query path,
			// and why hedging is safe to enable at all.
			n.cfg.Tracer.Abandon(trace)
			n.localFallbacks.Add(1)
			serveLocal()
			return
		}
		if trace != nil {
			trace.Status = rep.status
			trace.Hit = peekHit(rep.body)
			trace.Add(obs.SpanForward, decodeDur, n.clock.Since(fwdStart))
			// A corrupt span header degrades the trace, never the reply.
			if blob, err := base64.StdEncoding.DecodeString(rep.header.Get(spansHeader)); err == nil {
				if spans, err := obs.DecodeSpans(blob); err == nil {
					trace.AddRemote(rep.header.Get(servedByHeader), spans)
				}
			}
		}
		for _, k := range relayedHeaders {
			if v := rep.header.Get(k); v != "" {
				w.Header().Set(k, v)
			}
		}
		w.WriteHeader(rep.status)
		w.Write(rep.body)
		if trace != nil {
			n.cfg.Tracer.Finish(trace, n.clock.Since(wrapStart))
		}
	})
}

// peekHit extracts the cache-hit flag from a forwarded query response,
// so the origin's stitched trace reports the outcome the owner produced.
func peekHit(body []byte) bool {
	var p struct {
		Hit bool `json:"hit"`
	}
	return json.Unmarshal(body, &p) == nil && p.Hit
}

// peekUser extracts the tenant ID from a serving-route body.
func peekUser(body []byte) string {
	var p struct {
		User string `json:"user"`
	}
	if json.Unmarshal(body, &p) != nil {
		return ""
	}
	return p.User
}

// forward ships a tenant request to its owner, retrying up to
// ForwardRetries times. Between attempts the owner is re-resolved — a
// forward failure usually coincides with a membership change, and the
// retry should chase the tenant's new home, not hammer the old one.
// When hedge is set (idempotent routes only), a single duplicate fires
// if the first attempt is slow. Any HTTP answer, whatever its status,
// is the owner's reply; only an attempt that got no answer is a failure.
func (n *Node) forward(ctx context.Context, owner, path, user string, body []byte, hedge bool, traceID uint64) (*reply, error) {
	var lastErr error
	for attempt := 0; attempt <= n.cfg.ForwardRetries; attempt++ {
		if attempt > 0 {
			cur := n.ring.Load().Owner(user)
			if cur == n.cfg.Self || cur == "" {
				return nil, lastErr // the tenant is ours now — serve locally
			}
			owner = cur
		}
		p := n.peerByAddr(owner)
		var pb *resilience.Breaker
		if p != nil {
			pb = p.breaker
		}
		if pb != nil {
			if rej := pb.Allow(); rej != nil {
				// The peer's breaker is open: skip the attempt instead of
				// burning a forward timeout against a peer that has been
				// failing at traffic speed. The retry loop re-resolves the
				// owner; when every attempt skips, the caller's local
				// fallback keeps the tenant available.
				n.breakerSkips.Add(1)
				lastErr = fmt.Errorf("cluster: peer %s circuit open (retry in %v)", owner, rej.RetryAfter)
				continue
			}
		}
		n.forwards.Add(1)
		rep, err := n.forwardHedged(ctx, owner, path, body, traceID, hedge)
		if err == nil {
			// The peer answered: it is demonstrably alive, so failures
			// accumulated from unrelated hiccups reset.
			if pb != nil {
				pb.Record(true)
			}
			if p != nil && p.noteExchange() {
				n.rebuildRing("forward success")
			}
			return rep, nil
		}
		lastErr = err
		n.forwardErrors.Add(1)
		if ctx.Err() != nil {
			// The *client* gave up (disconnect, short deadline) — that
			// says nothing about the peer's health, and further attempts
			// on the dead context would fail instantly and unfairly trip
			// the death counter.
			if pb != nil {
				pb.Cancel()
			}
			return nil, lastErr
		}
		// Genuine transport failures feed the same failure counter as
		// missed heartbeats, so a dead owner is detected at traffic
		// speed, not just probe speed.
		if pb != nil {
			pb.Record(false)
		}
		if p != nil && p.recordFailure(n.cfg.DeadAfter) {
			n.rebuildRing("forward failures")
		}
	}
	return nil, lastErr
}

// forwardHedged runs one forward attempt and, when hedge is set,
// launches a single duplicate if the first has not answered within
// HedgeAfter. The first answer wins; the loser's connection is
// cancelled by context.
func (n *Node) forwardHedged(ctx context.Context, owner, path string, body []byte, traceID uint64, hedge bool) (*reply, error) {
	ctx, cancel := sim.ContextWithTimeout(ctx, n.clock, n.cfg.ForwardTimeout)
	defer cancel()
	results := make(chan forwardResult, 2)
	post := func() {
		rep, err := n.postForward(ctx, owner, path, body, traceID)
		results <- forwardResult{rep, err}
	}
	go post()
	inFlight := 1
	var hedgeTimer <-chan time.Time
	if hedge && n.cfg.HedgeAfter > 0 {
		t := n.clock.NewTimer(n.cfg.HedgeAfter)
		defer t.Stop()
		hedgeTimer = t.C
	}
	var lastErr error
	for inFlight > 0 {
		select {
		case res := <-results:
			inFlight--
			if res.err == nil {
				return res.rep, nil
			}
			lastErr = res.err
		case <-hedgeTimer:
			hedgeTimer = nil
			if n.cfg.HedgeVeto != nil && n.cfg.HedgeVeto() {
				// The node is saturated: a speculative duplicate would
				// multiply the very load that is making the owner slow.
				// Ride out the in-flight attempt alone.
				n.hedgesVetoed.Add(1)
				continue
			}
			n.hedges.Add(1)
			inFlight++
			go post()
		}
	}
	return nil, lastErr
}

type forwardResult struct {
	rep *reply
	err error
}

// reply is an owner's answer to one forward, read whole.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// postForward performs the HTTP exchange for one forward attempt: the
// client's body, unchanged, posted to the same route on the owner.
func (n *Node) postForward(ctx context.Context, owner, path string, body []byte, traceID uint64) (*reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+owner+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, n.cfg.Self)
	req.Header.Set(ringVersionHeader, strconv.FormatUint(n.ring.Load().Version(), 10))
	if traceID != 0 {
		req.Header.Set(traceIDHeader, strconv.FormatUint(traceID, 16))
	}
	hr, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hr.Body, maxForwardBody+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > maxForwardBody {
		// The owner answered, so this is no failed exchange, but its
		// answer cannot be relayed whole.
		return &reply{
			status: http.StatusBadGateway,
			header: http.Header{"Content-Type": {"text/plain; charset=utf-8"}},
			body:   fmt.Appendf(nil, "cluster: owner %s replied with more than %d bytes\n", owner, maxForwardBody),
		}, nil
	}
	return &reply{status: hr.StatusCode, header: hr.Header, body: raw}, nil
}

// serveForwarded serves a request a peer routed here. It serves it even
// if this node no longer believes it owns the tenant — the forwarder
// routed on its ring, and re-forwarding on a disagreement would loop;
// the handoff sweep reconciles ownership afterwards through the
// persistence path. Malformed cluster headers never fail the request:
// they only cost the stale-forward count or the trace.
func (n *Node) serveForwarded(inner http.Handler, w http.ResponseWriter, r *http.Request) {
	n.forwardedServed.Add(1)
	if v, err := strconv.ParseUint(r.Header.Get(ringVersionHeader), 10, 64); err == nil && v != n.ring.Load().Version() {
		// The forwarder routed on a different ring generation — expected
		// briefly around membership changes; persistent growth of this
		// counter means a peer's ring is not converging.
		n.staleForwards.Add(1)
	}
	w.Header().Set(servedByHeader, n.cfg.Self)
	id, err := strconv.ParseUint(r.Header.Get(traceIDHeader), 16, 64)
	if err != nil || id == 0 || !n.cfg.Tracer.Enabled() {
		inner.ServeHTTP(w, r)
		return
	}
	// Serve under a remote trace: the serving handlers record their spans
	// into it through the request context, and the spans ride back to the
	// origin in a header. The spans are complete only once the handler has
	// written its reply, so the reply is held until then. The remote trace
	// is never published here.
	rt := n.cfg.Tracer.StartRemote(id, r.URL.Path)
	rec := &responseCapture{ResponseWriter: w, status: http.StatusOK}
	inner.ServeHTTP(rec, r.WithContext(obs.ContextWithTrace(r.Context(), rt)))
	w.Header().Set(spansHeader, base64.StdEncoding.EncodeToString(obs.AppendSpans(nil, rt.Spans())))
	n.cfg.Tracer.Release(rt)
	w.WriteHeader(rec.status)
	w.Write(rec.body.Bytes())
}

// responseCapture holds back a handler's status and body; its headers
// go straight to the underlying writer.
type responseCapture struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (c *responseCapture) WriteHeader(status int)      { c.status = status }
func (c *responseCapture) Write(p []byte) (int, error) { return c.body.Write(p) }

// PeerStatus is a node's answer to a health probe (GET
// /v1/cluster/gossip): who it is, which ring it is on, what it holds,
// and who it currently believes is alive.
type PeerStatus struct {
	// Node is the responder's advertised address (its ring member ID).
	Node string `json:"node"`
	// RingVersion is the responder's current ring version.
	RingVersion uint64 `json:"ring_version"`
	// Resident is the responder's resident tenant count.
	Resident int `json:"resident_tenants"`
	// Alive lists the members the responder's ring currently includes.
	Alive []string `json:"alive"`
}

// handleGossip answers a peer health probe with this node's view.
func (n *Node) handleGossip(w http.ResponseWriter, _ *http.Request) {
	ring := n.ring.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(PeerStatus{
		Node:        n.cfg.Self,
		RingVersion: ring.Version(),
		Resident:    n.cfg.Registry.Resident(),
		Alive:       ring.Members(),
	})
}

// PeerInfo is one peer's health as reported by /v1/cluster/status.
type PeerInfo struct {
	Addr        string `json:"addr"`
	Alive       bool   `json:"alive"`
	Failures    int    `json:"failures,omitempty"`
	RingVersion uint64 `json:"ring_version,omitempty"`
	// Breaker is the peer's forward-circuit state ("closed", "half_open",
	// "open"); empty when per-peer breakers are disabled.
	Breaker string `json:"breaker,omitempty"`
}

// Status is the body of GET /v1/cluster/status.
type Status struct {
	Node            string     `json:"node"`
	RingVersion     uint64     `json:"ring_version"`
	Members         []string   `json:"members"`
	VNodes          int        `json:"vnodes"`
	Peers           []PeerInfo `json:"peers"`
	Resident        int        `json:"resident_tenants"`
	Forwards        int64      `json:"forwards"`
	ForwardErrors   int64      `json:"forward_errors,omitempty"`
	BreakerSkips    int64      `json:"breaker_skips,omitempty"`
	Hedges          int64      `json:"hedges,omitempty"`
	HedgesVetoed    int64      `json:"hedges_vetoed,omitempty"`
	LocalFallbacks  int64      `json:"local_fallbacks,omitempty"`
	ForwardedServed int64      `json:"forwarded_served"`
	StaleForwards   int64      `json:"stale_forwards,omitempty"`
	Handoffs        int64      `json:"handoffs"`
	HandoffBusy     int64      `json:"handoff_busy,omitempty"`
	HandoffErrors   int64      `json:"handoff_errors,omitempty"`
}

// StatusSnapshot assembles the status document (also used in-process by
// the harness and load generator).
func (n *Node) StatusSnapshot() Status {
	ring := n.ring.Load()
	st := Status{
		Node:            n.cfg.Self,
		RingVersion:     ring.Version(),
		Members:         ring.Members(),
		VNodes:          ring.VNodes(),
		Resident:        n.cfg.Registry.Resident(),
		Forwards:        n.forwards.Load(),
		ForwardErrors:   n.forwardErrors.Load(),
		BreakerSkips:    n.breakerSkips.Load(),
		Hedges:          n.hedges.Load(),
		HedgesVetoed:    n.hedgesVetoed.Load(),
		LocalFallbacks:  n.localFallbacks.Load(),
		ForwardedServed: n.forwardedServed.Load(),
		StaleForwards:   n.staleForwards.Load(),
		Handoffs:        n.handoffs.Load(),
		HandoffBusy:     n.handoffBusy.Load(),
		HandoffErrors:   n.handoffErrors.Load(),
	}
	for _, p := range n.peers {
		p.mu.Lock()
		pi := PeerInfo{
			Addr: p.addr, Alive: p.alive, Failures: p.failures, RingVersion: p.ringV,
		}
		p.mu.Unlock()
		if p.breaker != nil {
			pi.Breaker = resilience.StateName(p.breaker.State())
		}
		st.Peers = append(st.Peers, pi)
	}
	return st
}

func (n *Node) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(n.StatusSnapshot())
}

// RegisterMetrics exposes the node's routing, handoff, and membership
// state on reg under meancache_cluster_*. Everything reads the node's
// existing atomics (or peer locks, for liveness) at scrape time — no
// new accounting on the forward path.
func (n *Node) RegisterMetrics(reg *obs.Registry) {
	counters := []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"meancache_cluster_forwards_total", "Forward attempts sent to tenant owners.", &n.forwards},
		{"meancache_cluster_forward_errors_total", "Forward attempts that failed.", &n.forwardErrors},
		{"meancache_cluster_breaker_skips_total", "Forward attempts short-circuited by an open peer breaker.", &n.breakerSkips},
		{"meancache_cluster_hedges_total", "Duplicate hedged forward attempts launched.", &n.hedges},
		{"meancache_cluster_hedges_vetoed_total", "Hedged duplicates suppressed by the saturation veto.", &n.hedgesVetoed},
		{"meancache_cluster_local_fallbacks_total", "Requests served locally after their owner was unreachable.", &n.localFallbacks},
		{"meancache_cluster_forwarded_served_total", "Peer-forwarded requests served on this node.", &n.forwardedServed},
		{"meancache_cluster_stale_forwards_total", "Forwarded requests routed on a different ring generation.", &n.staleForwards},
		{"meancache_cluster_handoffs_total", "Tenants drained to their new owner after ring changes.", &n.handoffs},
		{"meancache_cluster_handoff_busy_total", "Handoff attempts deferred because the tenant stayed busy.", &n.handoffBusy},
		{"meancache_cluster_handoff_errors_total", "Handoff attempts that failed.", &n.handoffErrors},
	}
	for _, c := range counters {
		v := c.v
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(v.Load()) })
	}
	reg.GaugeFunc("meancache_cluster_ring_version", "Current consistent-hash ring version.", func() float64 {
		return float64(n.ring.Load().Version())
	})
	reg.GaugeFunc("meancache_cluster_ring_members", "Members on the current ring.", func() float64 {
		return float64(len(n.ring.Load().Members()))
	})
	reg.GaugeFunc("meancache_cluster_peers_alive", "Configured peers currently believed alive.", func() float64 {
		alive := 0
		for _, p := range n.peers {
			if p.isAlive() {
				alive++
			}
		}
		return float64(alive)
	})
	reg.GaugeFunc("meancache_cluster_peer_breakers_open", "Peers whose forward circuit breaker is currently open.", func() float64 {
		open := 0
		for _, p := range n.peers {
			if p.breaker != nil && p.breaker.State() == resilience.StateOpen {
				open++
			}
		}
		return float64(open)
	})
}

// heartbeatLoop probes every peer each Heartbeat and rebuilds the ring
// when the live set changes.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	ticker := n.clock.NewTicker(n.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			n.probePeers()
		}
	}
}

// probePeers health-checks all peers concurrently, then reconciles the
// ring with the observed live set.
func (n *Node) probePeers() {
	var wg sync.WaitGroup
	changed := atomic.Bool{}
	for _, p := range n.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			status, err := n.probe(p.addr)
			if err != nil {
				if p.recordFailure(n.cfg.DeadAfter) {
					// Log on the alive→dead flip only (bounded volume):
					// a persistent cause — like an identity mismatch from
					// a misconfigured peer list — must be diagnosable.
					n.logf("cluster: peer %s marked dead: %v", p.addr, err)
					changed.Store(true)
				}
				return
			}
			if p.recordSuccess(status.RingVersion) {
				changed.Store(true)
			}
		}(p)
	}
	wg.Wait()
	if changed.Load() {
		n.rebuildRing("heartbeat")
	}
}

// probe performs one health check against a peer's gossip endpoint.
func (n *Node) probe(addr string) (*PeerStatus, error) {
	ctx, cancel := sim.ContextWithTimeout(context.Background(), n.clock, n.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/cluster/gossip", nil)
	if err != nil {
		return nil, err
	}
	hr, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hr.Body, maxGossipBody+1))
	if err != nil {
		return nil, err
	}
	if hr.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: probe status %d", hr.StatusCode)
	}
	if len(raw) > maxGossipBody {
		return nil, fmt.Errorf("cluster: peer status from %s exceeds %d bytes", addr, maxGossipBody)
	}
	var status PeerStatus
	if err := json.Unmarshal(raw, &status); err != nil {
		return nil, fmt.Errorf("cluster: peer status from %s: %w", addr, err)
	}
	if len(status.Alive) > maxGossipMembers {
		return nil, fmt.Errorf("cluster: peer status from %s lists %d alive members, cap %d", addr, len(status.Alive), maxGossipMembers)
	}
	if status.Node != addr {
		// A different node answering on this address is a deployment
		// error; trusting it would split the ring.
		return nil, fmt.Errorf("cluster: peer at %s identifies as %s", addr, status.Node)
	}
	return &status, nil
}

// recordFailure notes a failed exchange; reports true when it flips the
// peer from alive to dead.
func (p *peer) recordFailure(deadAfter int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures++
	if p.alive && p.failures >= deadAfter {
		p.alive = false
		return true
	}
	return false
}

// recordSuccess notes a healthy probe; reports true when it revives a
// dead peer.
func (p *peer) recordSuccess(ringV uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures = 0
	p.ringV = ringV
	if !p.alive {
		p.alive = true
		return true
	}
	return false
}

// noteExchange records a successful non-probe exchange with the peer;
// reports true when it revives a dead peer. Unlike recordSuccess it
// leaves the last-reported ring version alone (a forward response does
// not carry one).
func (p *peer) noteExchange() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures = 0
	if !p.alive {
		p.alive = true
		return true
	}
	return false
}

func (p *peer) isAlive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alive
}

// peerByAddr resolves a configured peer (nil for self/unknown).
func (n *Node) peerByAddr(addr string) *peer {
	i := sort.Search(len(n.peers), func(i int) bool { return n.peers[i].addr >= addr })
	if i < len(n.peers) && n.peers[i].addr == addr {
		return n.peers[i]
	}
	return nil
}

// rebuildRing recomputes the ring from the live member set and swaps it
// atomically if it differs from the current one, kicking a handoff
// sweep. The compare-and-swap sequence runs under ringMu: a heartbeat
// rebuild and a forward-failure rebuild may race, and without the lock
// the loser could overwrite a newer ring with a staler member set that
// nothing would ever correct (readers still load the pointer lock-free).
func (n *Node) rebuildRing(cause string) {
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	members := []string{n.cfg.Self}
	for _, p := range n.peers {
		if p.isAlive() {
			members = append(members, p.addr)
		}
	}
	cur := n.ring.Load()
	if sameMembers(cur.Members(), members) {
		return
	}
	next := BuildRing(n.ringV.Add(1), members, n.cfg.VNodes)
	n.ring.Store(next)
	n.logf("cluster: ring v%d (%s): members %v", next.Version(), cause, next.Members())
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// sameMembers compares a sorted ring member list against an unsorted
// candidate set.
func sameMembers(sorted, candidate []string) bool {
	if len(sorted) != len(candidate) {
		return false
	}
	c := append([]string(nil), candidate...)
	sort.Strings(c)
	for i := range c {
		if c[i] != sorted[i] {
			return false
		}
	}
	return true
}

// handoffLoop drains non-owned tenants after ring changes and on a slow
// periodic sweep (which also catches tenants revived locally by the
// degraded forward fallback).
func (n *Node) handoffLoop() {
	defer n.wg.Done()
	ticker := n.clock.NewTicker(n.cfg.SweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-n.kick:
		case <-ticker.C:
		}
		n.handoffSweep()
	}
}

// handoffSweep drains every resident tenant the current ring places on
// another node. DrainWait budgets the whole sweep, not each tenant:
// waiting the full budget on one continuously-hot tenant must not stall
// the drainable tenants queued behind it, so once the budget is spent
// remaining tenants get a single pin check. Busy tenants are left for
// the next sweep — a request is never dropped to make a handoff
// deadline.
func (n *Node) handoffSweep() {
	deadline := n.clock.Now().Add(n.cfg.DrainWait)
	for _, id := range n.cfg.Registry.IDs() {
		owner := n.ring.Load().Owner(id)
		if owner == n.cfg.Self || owner == "" {
			continue
		}
		wait := n.clock.Until(deadline)
		if wait < 0 {
			wait = 0
		}
		resident, err := n.cfg.Registry.Drain(id, wait)
		switch {
		case err == server.ErrTenantBusy:
			n.handoffBusy.Add(1)
		case err != nil:
			n.handoffErrors.Add(1)
			n.logf("cluster: handing off %q to %s: %v", id, owner, err)
		case resident:
			n.handoffs.Add(1)
		}
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}
