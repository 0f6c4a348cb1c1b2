package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/embed"
	"repro/internal/llmsim"
	"repro/internal/server"
	"repro/internal/stack"
)

// The cluster scenario is the failover acceptance run: it spins a
// 3-node cacheserve cluster inside this process (internal/cluster's
// harness — real loopback HTTP between nodes, virtual-time upstream),
// warms a tenant population, checkpoints to shared storage, measures a
// steady-state probe phase, then kills one node abruptly a quarter of
// the way into a second phase and measures again.
//
// Gates: zero request errors in the failover phase, zero lost tenants
// (every tenant still answers after failover) and a duplicate-probe hit
// rate in the failover phase retaining ≥ 90% of the steady-state rate.
const (
	clusterNodes     = 3
	clusterVNodes    = 64
	clusterKill      = 1   // index of the node killed mid-phase-2
	clusterRetention = 0.9 // dup-hit-rate retention floor after failover
)

func runCluster(e env) ([]gate, error) {
	dir, err := os.MkdirTemp("", "loadgen-cluster-*")
	if err != nil {
		return nil, fmt.Errorf("temp persist dir: %w", err)
	}
	defer os.RemoveAll(dir)

	// The nodes are stack.Default() cacheserves apart from what follows.
	// One shared encoder and virtual-time upstream: encoders are
	// concurrency-safe once training stops, and sharing keeps an
	// in-process 3-node cluster cheap enough for CI.
	cfg := stack.Default()
	cfg.Encoder = embed.NewModel(embed.MPNetSim, e.seed)
	cfg.LLM = llmsim.New(llmsim.DefaultConfig())
	cfg.PersistDir = dir // shared — the harness's stand-in for shared storage
	// τ sits below the serving default: the scenario runs the untrained
	// encoder, and the retention gate needs a healthy duplicate hit rate
	// to measure degradation against.
	cfg.Tau = 0.70

	log.Printf("cluster scenario: %d nodes (%d vnodes), %d users, %d+%d probes/user, kill node %d mid-phase-2",
		clusterNodes, clusterVNodes, e.users, e.probes, e.probes, clusterKill)
	// The harness owns each node's listener and cluster.Node; the stacks
	// are closed here, after it.
	var stacks []*stack.Stack
	defer func() {
		for _, st := range stacks {
			st.Close()
		}
	}()
	h, err := cluster.StartHarness(cluster.HarnessConfig{
		Nodes:      clusterNodes,
		VNodes:     clusterVNodes,
		Heartbeat:  50 * time.Millisecond,
		DeadAfter:  3,
		DrainWait:  2 * time.Second,
		SweepEvery: 200 * time.Millisecond,
		MakeNode: func(self string) (*server.Registry, *server.Server, error) {
			st, err := stack.Build(cfg)
			if err != nil {
				return nil, nil, err
			}
			stacks = append(stacks, st)
			return st.Registry, st.Server, nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("starting harness: %w", err)
	}
	defer h.Close()
	if err := h.WaitConverged(10 * time.Second); err != nil {
		return nil, err
	}

	warmup, phases := buildJobs(e.seed, e.users, e.cached, e.dup, e.probes, e.probes)
	t := newTarget(e.timeout)
	t.entries = h.LiveURLs

	log.Printf("warmup: %d queries across %d entry nodes", len(warmup), clusterNodes)
	warm := newPhase()
	t.run(warm, warmup, e.concurrency, nil)
	if warm.failed() > 0 {
		return nil, fmt.Errorf("warmup: %s", warm.failures())
	}
	// Checkpoint: the durability boundary the abrupt kill is measured
	// against (production would run this on a timer).
	if err := h.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}

	log.Printf("phase 1 (steady state): %d probes", len(phases[0]))
	p1 := newPhase()
	t.run(p1, phases[0], e.concurrency, nil)

	log.Printf("phase 2 (failover): %d probes, killing node %d after 25%%", len(phases[1]), clusterKill)
	p2 := newPhase()
	killAfter := max(1, len(phases[1])/4)
	var killed chan struct{} // closed once the node is down
	t.run(p2, phases[1], e.concurrency, func(dispatched int) {
		if dispatched == killAfter {
			killed = make(chan struct{})
			go func() {
				defer close(killed)
				log.Printf("killing node %d (%s) abruptly", clusterKill, h.Nodes()[clusterKill].Addr)
				h.Kill(clusterKill, false)
			}()
		}
	})
	if killed == nil {
		return nil, fmt.Errorf("the mid-run kill never fired — the failover result would be meaningless")
	}
	<-killed

	// Lost-tenant audit: after the ring heals, every tenant must answer.
	if err := h.WaitConverged(10 * time.Second); err != nil {
		return nil, fmt.Errorf("post-kill convergence: %w", err)
	}
	lost := 0
	for u := 0; u < e.users; u++ {
		o := t.send(job{user: userName(u), text: "post-failover liveness probe"})
		if !o.served() {
			lost++
			if lost == 1 {
				log.Printf("lost tenant %s: %s", userName(u), o.problem())
			}
		}
	}

	fmt.Printf("\n=== cluster failover report (%d nodes, %d vnodes, %d tenants) ===\n",
		clusterNodes, clusterVNodes, e.users)
	p1.report("steady state")
	p2.report("failover")
	for _, hn := range h.Nodes() {
		if !hn.Alive() {
			fmt.Printf("node %s          killed\n", hn.Addr)
			continue
		}
		st := hn.ClusterNode().StatusSnapshot()
		fmt.Printf("node %s  resident %-4d forwards %-5d fwd-errors %-3d hedges %-3d fallbacks %-3d handoffs %-3d drains-busy %d\n",
			hn.Addr, st.Resident, st.Forwards, st.ForwardErrors, st.Hedges, st.LocalFallbacks, st.Handoffs, st.HandoffBusy)
	}

	retention := 0.0
	if p1.dupHitRate() > 0 {
		retention = p2.dupHitRate() / p1.dupHitRate()
	}
	return []gate{
		check("failover errors", p2.failed() == 0, "%s during the failover phase (gate 0)", p2.failures()),
		check("lost tenants", lost == 0, "%d of %d (gate 0)", lost, e.users),
		check("hit-rate retention", retention >= clusterRetention,
			"%.1f%% of steady state: dup-hit %.1f%% vs %.1f%% (gate ≥ %.0f%%)",
			100*retention, 100*p2.dupHitRate(), 100*p1.dupHitRate(), 100*clusterRetention),
	}, nil
}
