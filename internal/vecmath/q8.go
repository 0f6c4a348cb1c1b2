package vecmath

import (
	"fmt"
	"math"
)

// The int8 code kernel: a compressed copy of a vector that bounds its
// exact float32 dot product from above, so an index can discard rows that
// cannot reach a threshold after reading a quarter of their bytes
// (IVF with compressed codes plus exact re-ranking, as in Jégou, Douze &
// Schmid, "Product quantization for nearest neighbor search", 2011).
//
// Quantize stores x as scale·code with a symmetric per-vector scale
// max|x|/127 and returns a rounded-up bound err ≥ ‖x − scale·code‖. For a
// probe q and a row x, q·x = q̃·x̃ + q̃·e_x + e_q·x with q̃ = s_q·q̂ and
// e = the quantisation residual, so
//
//	q·x ≤ s_q·s_x·(q̂·x̂) + err_q·‖x‖ + ‖q̃‖·err_x.
//
// ScanQ8 computes q̂·x̂ for many rows. Integer addition modulo 2³² is
// associative, so the kernels in scan_amd64.s (SSE2 dotQ8x4, or
// dotQ8x4AVX2 when the CPU has AVX2) and the portable loop agree bit for
// bit in any summation order, and the sums are exact provided
// d·127² < 2³¹, which is what MaxQ8Dim encodes.

// MaxQ8Dim is the largest width whose code dot cannot overflow int32:
// every code is within ±127, so |q̂·x̂| ≤ d·127².
const MaxQ8Dim = math.MaxInt32 / (127 * 127)

// Quantize writes x's int8 code into code (len(x) entries; the probe side
// passes an int16 slice, the widened form ScanQ8 takes) and returns its
// scale and err, an upper bound on ‖x − scale·code‖. A vector with a NaN
// or ±Inf component gets a zero code, scale 0 and err = +Inf, so no bound
// built on it ever excludes anything. A zero vector gets scale 0 and
// err 0. err is summed in float64 against the float32 scale actually
// stored and rounded up to float32, so it holds whether or not the
// compiler fuses the multiply-adds.
func Quantize[T int8 | int16](x []float32, code []T) (scale, err float32) {
	if len(code) != len(x) {
		panic(fmt.Sprintf("vecmath: Quantize code len %d, want %d", len(code), len(x)))
	}
	// Non-negative floats order like their bit patterns, and NaN and ±Inf
	// have the largest, so one integer max finds max|x| and any of them.
	var bmax uint32
	for _, v := range x {
		bmax = max(bmax, math.Float32bits(v)&^(1<<31))
	}
	if bmax >= 0x7f800000 { // a NaN or ±Inf
		clear(code)
		return 0, float32(math.Inf(1))
	}
	amax := math.Float32frombits(bmax)
	scale = amax / 127
	var inv float64
	if scale != 0 {
		inv = 1 / float64(scale)
	}
	// With scale 0 (a zero vector, or one so small that max|x|/127
	// underflows) every code is 0 and err is ‖x‖.
	s64 := float64(scale)
	var sum float64
	for i, v := range x {
		// v·inv is within ±127 up to the rounding of scale, so v·inv+128.5
		// is positive and truncating it rounds half up. Any code is sound:
		// err is measured against the one stored.
		k := min(max(int32(float64(v)*inv+128.5)-128, -127), 127)
		code[i] = T(k)
		r := float64(v) - s64*float64(k)
		sum += r * r
	}
	// The float64 sum's relative rounding error is below d·2⁻⁵³ ≤ 2⁻³⁶
	// for any d ≤ MaxQ8Dim; 1e-9 covers it and the square root's.
	e := math.Sqrt(sum) * (1 + 1e-9)
	err = float32(e)
	if float64(err) < e {
		err = math.Nextafter32(err, float32(math.Inf(1)))
	}
	return scale, err
}

// ScanQ8 computes out[i] = Σ_j probe[j]·rows[i·d+j] in int32 for all
// len(out) rows stored contiguously in rows, where d = len(probe). Sums
// wrap modulo 2³² like any int32 arithmetic; with codes from Quantize and
// d ≤ MaxQ8Dim they are exact. It performs no allocation.
func ScanQ8(probe []int16, rows []int8, out []int32) {
	d := len(probe)
	n := len(out)
	if len(rows) != n*d {
		panic(fmt.Sprintf("vecmath: ScanQ8 rows len %d, want %d×%d", len(rows), n, d))
	}
	for i := scanQ8Blocks(probe, rows, out); i < n; i++ {
		out[i] = dotQ8(probe, rows[i*d:(i+1)*d])
	}
}

// dotQ8 is ScanQ8's portable loop for one row: the reference the kernel
// is tested against, and the whole scan off amd64.
func dotQ8(p []int16, r []int8) int32 {
	r = r[:len(p)]
	var s int32
	for j, v := range p {
		s += int32(v) * int32(r[j])
	}
	return s
}
