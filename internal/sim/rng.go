package sim

// RNG is the injectable deterministic random source the simulation
// stack uses instead of math/rand: SplitMix64 under the hood, so the
// stream for a given seed is fixed by this file alone — never by a Go
// release's rand internals — and the seed-determinism gates stay stable
// across toolchains. Not safe for concurrent use; the scenario engine
// is single-threaded by construction, and concurrent consumers must
// derive their own (Fork).
type RNG struct {
	state uint64
}

// NewRNG seeds a generator. Equal seeds yield equal streams.
func NewRNG(seed int64) *RNG { return &RNG{state: uint64(seed)} }

// Fork derives an independent generator whose stream is a pure function
// of the parent's seed and the label — how concurrent components get
// private streams without racing on one source.
func (r *RNG) Fork(label uint64) *RNG {
	return &RNG{state: r.state ^ (label+1)*0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 random bits (SplitMix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative random int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a uniform int in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Duration returns a uniform duration in [min, max] (min when the range
// is empty).
func (r *RNG) Duration(min, max int64) int64 {
	if max <= min {
		return min
	}
	return min + int64(r.Uint64()%uint64(max-min+1))
}

// Shuffle permutes n elements via swap (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
