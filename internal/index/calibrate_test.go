package index

import "testing"

func TestCalibrateReturnsPositive(t *testing.T) {
	ns := Calibrate()
	if ns <= 0 {
		t.Fatalf("Calibrate() = %v, want > 0", ns)
	}
	// The workload is 4096×64 multiply-adds; even a heroic machine needs
	// microseconds and even a throttled CI runner finishes well under a
	// second per sweep.
	if ns < 100 || ns > 1e9 {
		t.Fatalf("Calibrate() = %.0f ns/sweep, outside any plausible machine speed", ns)
	}
}

func TestTierThresholds(t *testing.T) {
	// Degenerate inputs are signalled by zeros (DefaultThresholds then
	// falls back to its static pair).
	if f, i := TierThresholds(0, 64); f != 0 || i != 0 {
		t.Fatalf("TierThresholds(0, 64) = (%d, %d), want (0, 0)", f, i)
	}
	if f, i := TierThresholds(50_000, 0); f != 0 || i != 0 {
		t.Fatalf("TierThresholds(_, 0) = (%d, %d), want (0, 0)", f, i)
	}

	fastFlat, fastIVF := TierThresholds(20_000, 64)
	slowFlat, slowIVF := TierThresholds(2_000_000, 64)
	if fastFlat < slowFlat || fastIVF < slowIVF {
		t.Fatalf("faster machine must not lower thresholds: fast (%d, %d) vs slow (%d, %d)",
			fastFlat, fastIVF, slowFlat, slowIVF)
	}
	// Clamps: the ladder always has room for every tier, whatever the
	// measurement says.
	for _, calNs := range []float64{1, 20_000, 2_000_000, 1e12} {
		for _, dim := range []int{8, 64, 768} {
			flatMax, ivfMax := TierThresholds(calNs, dim)
			if flatMax < 1024 || flatMax > 1<<17 {
				t.Fatalf("TierThresholds(%.0f, %d) flatMax = %d outside clamp band", calNs, dim, flatMax)
			}
			if ivfMax < 4*flatMax || ivfMax > 1<<20 {
				t.Fatalf("TierThresholds(%.0f, %d) ivfMax = %d outside clamp band (flatMax %d)", calNs, dim, ivfMax, flatMax)
			}
		}
	}
	// Higher dimensionality makes rows costlier, so thresholds shrink.
	f64, _ := TierThresholds(50_000, 64)
	f768, _ := TierThresholds(50_000, 768)
	if f768 > f64 {
		t.Fatalf("768-dim flatMax %d exceeds 64-dim flatMax %d", f768, f64)
	}
}
