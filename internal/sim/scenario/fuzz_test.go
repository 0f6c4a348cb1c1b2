package scenario

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// FuzzSimScenario drives small scenarios from fuzzer-chosen shapes: any
// combination of seed, cluster size, churn intensity, and probe loss
// must run without panicking and settle into a state that passes every
// safety invariant (Run checks them and returns an error otherwise).
func FuzzSimScenario(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(2))
	f.Add(int64(42), uint8(8), uint8(6), uint8(0))
	f.Add(int64(-7), uint8(2), uint8(1), uint8(9))
	f.Add(int64(0), uint8(16), uint8(8), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nodes, events, lossPct uint8) {
		n := 2 + int(nodes)%15              // 2..16
		loss := float64(lossPct%10) / 100.0 // 0%..9%
		cfg := Config{
			Seed:            seed,
			Nodes:           n,
			Tenants:         300,
			RequestsPerTick: 20,
			FLEvery:         300 * time.Millisecond,
			Duration:        4 * time.Second,
			ProbeLoss:       loss,
			// Default settle is 1.15s; keep the storm clear of it.
			Churn: RandomChurn(sim.NewRNG(seed).Fork(uint64(events)+1), n, 1+int(events)%8, 2500*time.Millisecond),
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed=%d nodes=%d events=%d loss=%.2f: %v", seed, n, events, loss, err)
		}
		if res.Dropped != 0 {
			t.Fatalf("dropped %d requests", res.Dropped)
		}
	})
}
