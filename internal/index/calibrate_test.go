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
	// Degenerate inputs are signalled by zero (DefaultFlatMax then falls
	// back to its static value).
	if f := FlatMaxFor(0, 64); f != 0 {
		t.Fatalf("FlatMaxFor(0, 64) = %d, want 0", f)
	}
	if f := FlatMaxFor(50_000, 0); f != 0 {
		t.Fatalf("FlatMaxFor(_, 0) = %d, want 0", f)
	}

	if fast, slow := FlatMaxFor(20_000, 64), FlatMaxFor(2_000_000, 64); fast < slow {
		t.Fatalf("faster machine must not lower the threshold: fast %d vs slow %d", fast, slow)
	}
	// Clamps: the threshold stays in its band whatever the measurement
	// says.
	for _, calNs := range []float64{1, 20_000, 2_000_000, 1e12} {
		for _, dim := range []int{8, 64, 768} {
			if flatMax := FlatMaxFor(calNs, dim); flatMax < 1024 || flatMax > 1<<17 {
				t.Fatalf("FlatMaxFor(%.0f, %d) = %d outside clamp band", calNs, dim, flatMax)
			}
		}
	}
	// Higher dimensionality makes rows costlier, so the threshold shrinks.
	if f64, f768 := FlatMaxFor(50_000, 64), FlatMaxFor(50_000, 768); f768 > f64 {
		t.Fatalf("768-dim flatMax %d exceeds 64-dim flatMax %d", f768, f64)
	}
}
