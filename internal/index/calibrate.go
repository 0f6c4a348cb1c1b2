package index

import (
	"sync"
	"time"
)

// Micro-calibration for the Adaptive promotion threshold. A fixed
// FlatMax encodes one machine's crossover point; on a faster box the
// exact Flat scan stays competitive far longer, and on a slow shared
// runner it falls behind much earlier. Fast to run (~tens of
// milliseconds), Calibrate measures a fixed workload — a scalar
// dot-product sweep over a private array, deliberately not a call into
// the index kernels, so the yardstick cannot move with the code under
// test — and FlatMaxFor converts that measurement into a promotion point
// that tracks actual machine speed.
//
// The yardstick is Dot's scalar loop, but on amd64 the real scan runs
// vecmath.ScanDot's SSE kernel, roughly 3× faster per row. The budget
// below is therefore conservative: an exact scan at FlatMax costs about a
// third of it. Retuning it would move the Flat→IVF boundary and with it
// the quality of 4,096-entry tenants, so it is left for a change that
// re-pins those numbers.

const (
	calibRows = 4096
	calibDim  = 64

	// flatScanBudgetNs is the latency budget for one exact Flat scan:
	// while a full scan of the tenant fits this budget, exact search is
	// cheap enough that approximate tiers are not worth their recall
	// loss. Flat scores every row, so this is also its real cost, less
	// the kernel's speed-up over the scalar yardstick.
	flatScanBudgetNs = 150_000
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

// DefaultFlatMax reports the promotion threshold NewAdaptive gives a
// dim-dimensional index whose config sets none: FlatMaxFor a Calibrate
// measurement taken on the first call and kept for the life of the
// process, so every tenant of a server walks the same ladder.
func DefaultFlatMax(dim int) int {
	calibration.once.Do(func() { calibration.ns = Calibrate() })
	if flatMax := FlatMaxFor(calibration.ns, dim); flatMax > 0 {
		return flatMax
	}
	return 4096 // no usable measurement
}

// FlatMaxFor converts a Calibrate measurement into the Adaptive
// promotion threshold for dim-dimensional vectors. The model costs a row
// at calNs/(4096·64) per dimension; FlatMax is the largest tenant whose
// full scan fits flatScanBudgetNs, clamped to [1024, 128k] so a wildly
// throttled or idle-turbo measurement can never produce a degenerate
// ladder. Degenerate inputs return 0.
func FlatMaxFor(calNs float64, dim int) int {
	if dim <= 0 || calNs <= 0 {
		return 0
	}
	rowNs := calNs / float64(calibRows*calibDim) * float64(dim)
	return clampInt(int(flatScanBudgetNs/rowNs), 1024, 1<<17)
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
