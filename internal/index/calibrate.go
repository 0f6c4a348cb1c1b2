package index

import (
	"sync"
	"time"
)

// Micro-calibration for the Adaptive tier thresholds. Fixed
// FlatMax/IVFMax values encode one machine's crossover points; on a
// faster box the exact Flat scan stays competitive far longer, and on a
// slow shared runner it falls behind much earlier. Fast to run (~tens
// of milliseconds), Calibrate measures a fixed workload —
// a scalar dot-product sweep over a private array, deliberately not a
// call into the index kernels, so the yardstick cannot move with the
// code under test — and TierThresholds converts that measurement into
// promotion points that track actual machine speed.

const (
	calibRows = 4096
	calibDim  = 64

	// flatScanBudgetNs is the worst-case latency budget for one exact
	// unpruned Flat scan: while a full scan of the tenant fits this
	// budget, exact search is cheap enough that approximate tiers are not
	// worth their recall loss. The Cauchy–Schwarz pruning only makes the
	// real scan faster, so the derived threshold is conservative.
	flatScanBudgetNs = 150_000
	// ivfProbeBudgetNs is the equivalent budget for one IVF probe pass
	// (centroid scan + nprobe list scans); past it the graph traversal's
	// logarithmic work wins despite its constants.
	ivfProbeBudgetNs = 600_000
)

// Calibrate measures the reference workload — a 4-accumulator scalar
// dot-product sweep of 4096 rows × 64 dims — and returns its ns per sweep.
func Calibrate() float64 {
	data := make([]float32, calibRows*calibDim)
	x := float32(1)
	for i := range data {
		x = x*1.0001 + 0.001 // deterministic, denormal-free fill
		data[i] = x
	}
	probe := data[:calibDim]
	out := make([]float32, calibRows)
	sweep := func() {
		for row := 0; row < calibRows; row++ {
			var s0, s1, s2, s3 float32
			v := data[row*calibDim : (row+1)*calibDim]
			for j := 0; j+4 <= calibDim; j += 4 {
				s0 += probe[j] * v[j]
				s1 += probe[j+1] * v[j+1]
				s2 += probe[j+2] * v[j+2]
				s3 += probe[j+3] * v[j+3]
			}
			out[row] = s0 + s1 + s2 + s3
		}
	}
	sweep() // warm the array and the branch predictor
	const minRun = 10 * time.Millisecond
	iters := 4
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			sweep()
		}
		elapsed := time.Since(start)
		if elapsed >= minRun {
			return float64(elapsed.Nanoseconds()) / float64(iters)
		}
		// Scale toward the target run length with 2× headroom so the next
		// attempt almost always lands past it.
		next := iters * 2
		if elapsed > 0 {
			if est := int(float64(iters) * 2 * float64(minRun) / float64(elapsed)); est > next {
				next = est
			}
		}
		iters = next
	}
}

// calibration holds the one Calibrate measurement a process takes.
var calibration struct {
	once sync.Once
	ns   float64
}

// DefaultThresholds reports the promotion thresholds NewAdaptive gives a
// dim-dimensional index whose config sets none: TierThresholds of a
// Calibrate measurement taken on the first call and kept for the life
// of the process, so every tenant of a server walks the same ladder.
func DefaultThresholds(dim int) (flatMax, ivfMax int) {
	calibration.once.Do(func() { calibration.ns = Calibrate() })
	if flatMax, ivfMax = TierThresholds(calibration.ns, dim); flatMax == 0 {
		return 4096, 65536 // no usable measurement
	}
	return flatMax, ivfMax
}

// TierThresholds converts a Calibrate measurement into Adaptive
// promotion thresholds for dim-dimensional vectors. The model costs a
// row at calNs/(4096·64) per dimension; FlatMax is the largest tenant
// whose worst-case unpruned scan fits flatScanBudgetNs, and IVFMax the
// largest whose IVF probe pass — centroid scan plus nprobe list scans at
// the √(4n)-list sizing NewAdaptive uses, ≈6·√n rows — fits
// ivfProbeBudgetNs. Both are clamped to sane bands ([1024, 128k] and
// [4·FlatMax, 1M]) so a wildly throttled or idle-turbo measurement can
// never produce a degenerate ladder.
func TierThresholds(calNs float64, dim int) (flatMax, ivfMax int) {
	if dim <= 0 || calNs <= 0 {
		return 0, 0 // DefaultThresholds falls back to its static pair
	}
	rowNs := calNs / float64(calibRows*calibDim) * float64(dim)
	flatMax = clampInt(int(flatScanBudgetNs/rowNs), 1024, 1<<17)
	sqrtN := ivfProbeBudgetNs / (6 * rowNs)
	ivfMax = clampInt(int(sqrtN*sqrtN), 4*flatMax, 1<<20)
	return flatMax, ivfMax
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
