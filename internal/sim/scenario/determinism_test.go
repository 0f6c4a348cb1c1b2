package scenario

import (
	"testing"
	"time"
)

// stormConfig is the determinism gate's scenario: 100k tenants on 8
// virtual nodes, 2% probe loss, federated rounds every 500ms, and an
// 8-event churn storm — overlapping kills, staggered revivals — all
// inside 12s of virtual time.
func stormConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		Nodes:           8,
		Tenants:         100_000,
		ProbeLoss:       0.02,
		RequestsPerTick: 200,
		FLEvery:         500 * time.Millisecond,
		Duration:        12 * time.Second,
		Churn: []ChurnEvent{
			{At: 1 * time.Second, Kind: Kill, Node: 1},
			{At: 1200 * time.Millisecond, Kind: Kill, Node: 3},
			{At: 3 * time.Second, Kind: Revive, Node: 1},
			{At: 4 * time.Second, Kind: Kill, Node: 5},
			{At: 5 * time.Second, Kind: Revive, Node: 3},
			{At: 7 * time.Second, Kind: Revive, Node: 5},
			{At: 8 * time.Second, Kind: Kill, Node: 2},
			{At: 9500 * time.Millisecond, Kind: Revive, Node: 2},
		},
	}
}

// TestChurnStormDeterminism is the seed-determinism acceptance gate:
// the same seed must reproduce the 100k-tenant churn storm bit for bit
// (every counter and the full trace digest), a different seed must
// diverge, and both runs plus the replay must fit well under the 30s
// wall budget.
func TestChurnStormDeterminism(t *testing.T) {
	start := time.Now()

	r1, err := Run(stormConfig(42))
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := Run(stormConfig(42))
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if r1 != r2 {
		t.Fatalf("same seed diverged:\nrun 1: %+v\nrun 2: %+v", r1, r2)
	}

	r3, err := Run(stormConfig(43))
	if err != nil {
		t.Fatalf("run 3: %v", err)
	}
	if r3.Digest == r1.Digest {
		t.Fatalf("different seeds produced the same digest %016x", r1.Digest)
	}

	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("three storm runs took %v, budget is 30s", wall)
	}

	if r1.Served == 0 || r1.Handoffs == 0 || r1.Failovers == 0 || r1.Rounds == 0 {
		t.Fatalf("storm did not exercise the system: %+v", r1)
	}
	t.Logf("seed 42: digest %016x over %d events — served %d (forwarded %d, failovers %d), handoffs %d, deaths %d, rounds %d, max remap %.3f, wall %v",
		r1.Digest, r1.TraceEvents, r1.Served, r1.Forwarded, r1.Failovers,
		r1.Handoffs, r1.Deaths, r1.Rounds, r1.MaxRemapFraction, time.Since(start))
}

// TestDeterminismAcrossTenantScales pins the engine's determinism away
// from the storm shape: at each scale the digest is a pure function of
// the seed.
func TestDeterminismAcrossTenantScales(t *testing.T) {
	for _, tenants := range []int{100, 10_000} {
		cfg := Config{Seed: 7, Tenants: tenants, Nodes: 5, Duration: 4 * time.Second,
			Churn: []ChurnEvent{{At: time.Second, Kind: Kill, Node: 2}}}
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("tenants=%d: %v", tenants, err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("tenants=%d replay: %v", tenants, err)
		}
		if a != b {
			t.Fatalf("tenants=%d: replay diverged", tenants)
		}
	}
}

// TestInvalidSchedulesRejected pins the validation contract the fuzz
// and property generators rely on.
func TestInvalidSchedulesRejected(t *testing.T) {
	base := Config{Nodes: 2, Tenants: 10, Duration: 5 * time.Second}
	cases := map[string][]ChurnEvent{
		"kill last node": {
			{At: time.Second, Kind: Kill, Node: 0},
			{At: 2 * time.Second, Kind: Kill, Node: 1},
		},
		"double kill":        {{At: time.Second, Kind: Kill, Node: 0}, {At: 2 * time.Second, Kind: Kill, Node: 0}},
		"revive live node":   {{At: time.Second, Kind: Revive, Node: 0}},
		"node out of range":  {{At: time.Second, Kind: Kill, Node: 9}},
		"inside settle tail": {{At: 4900 * time.Millisecond, Kind: Kill, Node: 0}},
	}
	for name, churn := range cases {
		cfg := base
		cfg.Churn = churn
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid schedule accepted", name)
		}
	}
}
