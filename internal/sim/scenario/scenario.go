// Package scenario runs the whole cluster — ring membership, gossip
// death detection, tenant handoff, request routing, federated rounds,
// and model rollouts — as a discrete-event simulation on the
// internal/sim virtual clock. One seeded RNG drives every stochastic
// choice and every event executes single-threaded in deterministic
// queue order, so a run is a pure function of its Config: the same seed
// produces a bit-identical event trace (compared by Digest), and a
// failing seed from CI replays exactly on a laptop.
//
// The model is deliberately structural, not a mock of the production
// structs: placement goes through the real cluster.Ring, and the
// gossip/handoff/rollout state machines mirror internal/cluster and
// internal/flserve at the protocol level (probe counters, per-node
// membership views, sweep-driven handoff, staggered rollout adoption).
// That keeps million-tenant churn storms cheap enough to property-test
// while still exercising the coordination logic the -race suites cover
// at small scale.
package scenario

import (
	"fmt"
	"sort"
	"time"
)

// ChurnKind distinguishes the two membership transitions.
type ChurnKind uint8

const (
	// Kill crashes a node: its in-memory tenant state is lost (the
	// durable store keeps the persisted copy) and peers must detect the
	// death by probe failures.
	Kill ChurnKind = iota + 1
	// Revive restarts a dead node empty: it rejoins with a fresh
	// membership view and the latest rolled-out model.
	Revive
)

// ChurnEvent is one scheduled membership transition.
type ChurnEvent struct {
	// At is the virtual offset from scenario start.
	At time.Duration
	// Kind is Kill or Revive.
	Kind ChurnKind
	// Node indexes the node the event applies to.
	Node int
}

// Config parameterises one simulated run. The zero value of every field
// except Seed gets a sensible default; Seed 0 is a valid seed.
type Config struct {
	// Seed drives every stochastic choice in the run.
	Seed int64
	// Nodes is the cluster size, 1..16 (residency is a 16-bit mask).
	// Defaults to 8.
	Nodes int
	// Tenants is the tenant population. Defaults to 1000.
	Tenants int
	// VNodes is the consistent-hash virtual-node count per member.
	// Defaults to 64 (cheaper rebuilds than production's 128 at the
	// same placement behaviour).
	VNodes int
	// Heartbeat is the gossip probe period. Defaults to 100ms.
	Heartbeat time.Duration
	// DeadAfter is how many consecutive failed probes declare a peer
	// dead, matching cluster.Config.DeadAfter. Defaults to 3.
	DeadAfter int
	// SweepEvery is the handoff sweep period. Defaults to 250ms.
	SweepEvery time.Duration
	// ProbeLoss is the iid probe-loss probability (spurious suspicion).
	// Loss stops during the settle tail so the end state can converge.
	ProbeLoss float64
	// RequestsPerTick requests are injected every TrafficEvery.
	// Defaults: 50 per 50ms.
	RequestsPerTick int
	TrafficEvery    time.Duration
	// FLEvery is the federated-round period; 0 disables FL. Each round
	// samples FLClients tenants, bumps the global model version, and
	// rolls the new version out to each live node after a jittered
	// delay. Defaults: disabled / 10 clients.
	FLEvery   time.Duration
	FLClients int
	// Churn is the membership schedule. Events must keep at least one
	// node alive at all times, kill only live nodes, revive only dead
	// ones, and finish before the settle tail.
	Churn []ChurnEvent
	// Duration is the total virtual run time. Defaults to 10s.
	Duration time.Duration
	// Settle is the churn- and loss-free tail during which views,
	// residency, and rollouts must converge before the invariant check.
	// Defaults to DeadAfter×Heartbeat + 3×SweepEvery + 100ms.
	Settle time.Duration
}

// Result summarises one run.
type Result struct {
	// Digest fingerprints the full event trace: two runs with equal
	// Config produce equal digests, and that is the determinism gate.
	Digest uint64
	// TraceEvents is how many events the digest covers.
	TraceEvents int
	// VirtualTime is the simulated span (Config.Duration after defaults).
	VirtualTime time.Duration

	Served    int64 // requests answered
	Forwarded int64 // requests that crossed from entry node to owner
	Failovers int64 // requests served by the entry from the store because the routed owner was dead
	Dropped   int64 // requests lost — zero on every valid schedule

	Handoffs int64 // tenant migrations between nodes
	Hydrates int64 // store loads on first touch after a move or crash
	Deaths   int64 // dead declarations across membership views
	Revivals int64 // peer revivals observed across views

	Rounds       int64  // federated rounds completed
	ModelVersion uint64 // final global model version

	// MaxRemapFraction is the largest fraction of tenants whose
	// ground-truth owner changed across a single churn event — bounded
	// by the churned node's ring share (the consistent-hashing
	// guarantee the property tests assert).
	MaxRemapFraction float64
}

// withDefaults normalises cfg, returning an error for invalid shapes.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 8
	}
	if cfg.Nodes < 1 || cfg.Nodes > 16 {
		return cfg, fmt.Errorf("scenario: Nodes must be 1..16, got %d", cfg.Nodes)
	}
	if cfg.Tenants == 0 {
		cfg.Tenants = 1000
	}
	if cfg.Tenants < 1 {
		return cfg, fmt.Errorf("scenario: Tenants must be positive, got %d", cfg.Tenants)
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 64
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 100 * time.Millisecond
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = 250 * time.Millisecond
	}
	if cfg.ProbeLoss < 0 || cfg.ProbeLoss >= 1 {
		return cfg, fmt.Errorf("scenario: ProbeLoss must be in [0, 1), got %g", cfg.ProbeLoss)
	}
	if cfg.RequestsPerTick <= 0 {
		cfg.RequestsPerTick = 50
	}
	if cfg.TrafficEvery <= 0 {
		cfg.TrafficEvery = 50 * time.Millisecond
	}
	if cfg.FLEvery > 0 && cfg.FLClients <= 0 {
		cfg.FLClients = 10
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Settle <= 0 {
		cfg.Settle = time.Duration(cfg.DeadAfter)*cfg.Heartbeat + 3*cfg.SweepEvery + 100*time.Millisecond
	}
	if cfg.Settle >= cfg.Duration {
		return cfg, fmt.Errorf("scenario: Settle (%v) must be shorter than Duration (%v)", cfg.Settle, cfg.Duration)
	}

	// Validate the churn schedule against a dry-run of the alive set:
	// kills must hit live nodes, revives dead ones, at least one node
	// must stay alive throughout, and everything must land before the
	// settle tail so the invariants have time to converge.
	churn := make([]ChurnEvent, len(cfg.Churn))
	copy(churn, cfg.Churn)
	sort.SliceStable(churn, func(i, j int) bool { return churn[i].At < churn[j].At })
	cfg.Churn = churn
	aliveN := cfg.Nodes
	alive := make([]bool, cfg.Nodes)
	for i := range alive {
		alive[i] = true
	}
	for i, ev := range churn {
		if ev.Node < 0 || ev.Node >= cfg.Nodes {
			return cfg, fmt.Errorf("scenario: churn[%d] targets node %d of %d", i, ev.Node, cfg.Nodes)
		}
		if ev.At < 0 || ev.At > cfg.Duration-cfg.Settle {
			return cfg, fmt.Errorf("scenario: churn[%d] at %v lands inside the settle tail (run is %v with %v settle)",
				i, ev.At, cfg.Duration, cfg.Settle)
		}
		switch ev.Kind {
		case Kill:
			if !alive[ev.Node] {
				return cfg, fmt.Errorf("scenario: churn[%d] kills node %d twice", i, ev.Node)
			}
			alive[ev.Node] = false
			if aliveN--; aliveN == 0 {
				return cfg, fmt.Errorf("scenario: churn[%d] kills the last live node", i)
			}
		case Revive:
			if alive[ev.Node] {
				return cfg, fmt.Errorf("scenario: churn[%d] revives live node %d", i, ev.Node)
			}
			alive[ev.Node] = true
			aliveN++
		default:
			return cfg, fmt.Errorf("scenario: churn[%d] has unknown kind %d", i, ev.Kind)
		}
	}
	return cfg, nil
}
