package resilience

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Breaker states, exposed as a gauge (StateCode) and in snapshots.
const (
	StateClosed   = 0 // upstream healthy; all traffic flows
	StateHalfOpen = 1 // probing: a bounded number of trial calls pass
	StateOpen     = 2 // upstream tripped; misses are shed (cache-only)
)

// StateName renders a breaker state code.
func StateName(code int) string {
	switch code {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half_open"
	default:
		return "open"
	}
}

// BreakerConfig parameterises the circuit breaker.
type BreakerConfig struct {
	// Window is the sliding outcome window size (count-based, so the
	// state machine is deterministic under scripted sequences).
	// <= 0 disables the breaker.
	Window int
	// MinSamples is the minimum outcomes in the window before the
	// failure ratio can trip the breaker. Defaults to Window/2.
	MinSamples int
	// FailureRatio trips the breaker when window failures/samples
	// reaches it, in (0, 1]. Defaults to 0.5.
	FailureRatio float64
	// OpenFor is how long the breaker stays open before allowing
	// half-open probes. Defaults to 5s.
	OpenFor time.Duration
	// HalfOpenProbes is how many trial calls half-open admits (and how
	// many must succeed, with zero failures, to close). Defaults to 3.
	HalfOpenProbes int
	// Clock is the cool-off time source. Nil defaults to the wall
	// clock; simulations inject a virtual one so open→half-open
	// transitions run on virtual time.
	Clock sim.Clock
}

// Breaker is a circuit breaker over a sliding window of call outcomes:
// closed until the windowed failure ratio trips it, open for OpenFor,
// then half-open admitting HalfOpenProbes trial calls — all of which
// must succeed to close; any failure reopens. Allow/Record are the two
// halves of one guarded call.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    int
	outcomes []bool // ring: true = failure
	size     int    // filled entries
	pos      int    // next write
	failures int    // failures currently in the window
	openedAt time.Time
	inProbes int // half-open: probes admitted, not yet recorded
	okProbes int // half-open: successful probes so far

	stateCode atomic.Int64 // mirrors state for lock-free gauges
	opens     atomic.Int64
	shedOpen  atomic.Int64
	probes    atomic.Int64
}

// NewBreaker builds the breaker. Panics if cfg.Window <= 0.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Window <= 0 {
		panic("resilience: BreakerConfig.Window must be positive")
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = cfg.Window / 2
		if cfg.MinSamples < 1 {
			cfg.MinSamples = 1
		}
	}
	if cfg.FailureRatio <= 0 || cfg.FailureRatio > 1 {
		cfg.FailureRatio = 0.5
	}
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = 5 * time.Second
	}
	if cfg.HalfOpenProbes <= 0 {
		cfg.HalfOpenProbes = 3
	}
	cfg.Clock = sim.Or(cfg.Clock)
	return &Breaker{cfg: cfg, outcomes: make([]bool, cfg.Window)}
}

// Allow asks whether one upstream call may proceed. nil means yes — the
// caller must pair it with exactly one Record. A *Rejection means the
// breaker is open (or half-open with its probe budget spent): serve
// from cache or shed; do not call upstream and do not Record.
func (b *Breaker) Allow() *Rejection {
	b.mu.Lock()
	switch b.state {
	case StateClosed:
		b.mu.Unlock()
		return nil
	case StateOpen:
		now := b.cfg.Clock.Now()
		if wait := b.openedAt.Add(b.cfg.OpenFor).Sub(now); wait > 0 {
			b.mu.Unlock()
			b.shedOpen.Add(1)
			return &Rejection{Reason: ReasonUpstreamOpen, RetryAfter: wait, CacheOnly: true}
		}
		b.setStateLocked(StateHalfOpen)
		b.inProbes, b.okProbes = 0, 0
		fallthrough
	default: // StateHalfOpen
		if b.inProbes+b.okProbes < b.cfg.HalfOpenProbes {
			b.inProbes++
			b.mu.Unlock()
			b.probes.Add(1)
			return nil
		}
		wait := b.cfg.OpenFor
		b.mu.Unlock()
		b.shedOpen.Add(1)
		return &Rejection{Reason: ReasonUpstreamOpen, RetryAfter: wait, CacheOnly: true}
	}
}

// Record reports the outcome of a call previously admitted by Allow.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.pushLocked(!ok)
		if b.size >= b.cfg.MinSamples &&
			float64(b.failures) >= b.cfg.FailureRatio*float64(b.size) {
			b.tripLocked()
		}
	case StateHalfOpen:
		if b.inProbes > 0 {
			b.inProbes--
		}
		if !ok {
			b.tripLocked()
			return
		}
		b.okProbes++
		if b.okProbes >= b.cfg.HalfOpenProbes {
			b.setStateLocked(StateClosed)
			b.resetWindowLocked()
		}
	case StateOpen:
		// A straggler from before the trip (its Allow predates the
		// state change); the window was reset — drop it.
	}
}

// Cancel releases an Allow admission whose call never produced an
// outcome (saturation shed, client disconnect). In half-open it returns
// the probe slot so an abandoned probe cannot wedge the state machine;
// in other states it is a no-op.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == StateHalfOpen && b.inProbes > 0 {
		b.inProbes--
	}
}

// tripLocked opens the breaker and stamps the cool-off clock.
func (b *Breaker) tripLocked() {
	b.setStateLocked(StateOpen)
	b.openedAt = b.cfg.Clock.Now()
	b.opens.Add(1)
	b.resetWindowLocked()
	b.inProbes, b.okProbes = 0, 0
}

func (b *Breaker) setStateLocked(s int) {
	b.state = s
	b.stateCode.Store(int64(s))
}

func (b *Breaker) resetWindowLocked() {
	for i := range b.outcomes {
		b.outcomes[i] = false
	}
	b.size, b.pos, b.failures = 0, 0, 0
}

// pushLocked slides one outcome into the window.
func (b *Breaker) pushLocked(failed bool) {
	if b.size == len(b.outcomes) {
		if b.outcomes[b.pos] {
			b.failures--
		}
	} else {
		b.size++
	}
	b.outcomes[b.pos] = failed
	if failed {
		b.failures++
	}
	b.pos = (b.pos + 1) % len(b.outcomes)
}

// State reports the current state code (lock-free; for gauges).
func (b *Breaker) State() int { return int(b.stateCode.Load()) }

// BreakerStats snapshots the breaker.
type BreakerStats struct {
	State string `json:"state"`
	// StateCode is 0 closed, 1 half-open, 2 open.
	StateCode int `json:"state_code"`
	// WindowSamples/WindowFailures describe the sliding window (closed
	// state only; reset on every transition).
	WindowSamples  int   `json:"window_samples"`
	WindowFailures int   `json:"window_failures"`
	Opens          int64 `json:"opens"`
	ShedOpen       int64 `json:"shed_open"`
	Probes         int64 `json:"probes"`
	// RetryAfterMS is the remaining cool-off when open.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Opens exposes the cumulative trip count for metric callbacks.
func (b *Breaker) OpenCount() int64 { return b.opens.Load() }

// ShedCount exposes cumulative open-state rejections for metric callbacks.
func (b *Breaker) ShedCount() int64 { return b.shedOpen.Load() }

// Stats snapshots the breaker.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	s := BreakerStats{
		State:          StateName(b.state),
		StateCode:      b.state,
		WindowSamples:  b.size,
		WindowFailures: b.failures,
	}
	if b.state == StateOpen {
		if wait := b.openedAt.Add(b.cfg.OpenFor).Sub(b.cfg.Clock.Now()); wait > 0 {
			s.RetryAfterMS = wait.Milliseconds()
		}
	}
	b.mu.Unlock()
	s.Opens = b.opens.Load()
	s.ShedOpen = b.shedOpen.Load()
	s.Probes = b.probes.Load()
	return s
}
