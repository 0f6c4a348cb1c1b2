package embed

import "sync/atomic"

// Swappable is an Encoder whose underlying encoder can be replaced
// atomically while serving traffic — the hot-rollout primitive of the
// online FL loop. Every tenant of a serving process encodes through one
// Swappable; committing a freshly aggregated global model is a single
// pointer swap, after which all in-flight and future Encode calls use the
// new weights while cached entries are re-embedded in the background.
//
// The replacement must have the same output dimension as the original
// (rollouts swap same-architecture models); Swap panics otherwise, because
// every live cache is sized to the original dimension.
type Swappable struct {
	cur atomic.Pointer[encoderBox]
}

// encoderBox wraps the interface value so distinct concrete encoder types
// can share one atomic slot.
type encoderBox struct{ enc Encoder }

// NewSwappable wraps enc.
func NewSwappable(enc Encoder) *Swappable {
	s := &Swappable{}
	s.cur.Store(&encoderBox{enc})
	return s
}

// Current returns the encoder currently being served.
func (s *Swappable) Current() Encoder { return s.cur.Load().enc }

// Swap atomically replaces the served encoder.
func (s *Swappable) Swap(enc Encoder) {
	if enc.Dim() != s.Dim() {
		panic("embed: Swappable.Swap dimension mismatch")
	}
	s.cur.Store(&encoderBox{enc})
}

// Encode implements Encoder.
func (s *Swappable) Encode(text string) []float32 { return s.Current().Encode(text) }

// EncodeInto forwards the pooled-buffer encode when the current encoder
// supports it, copying through dst otherwise, so buffer-recycling
// callers keep their zero-alloc path across a hot model swap.
func (s *Swappable) EncodeInto(text string, dst []float32) []float32 {
	return EncodeInto(s.Current(), text, dst)
}

// Dim implements Encoder.
func (s *Swappable) Dim() int { return s.Current().Dim() }

// Name implements Encoder.
func (s *Swappable) Name() string { return s.Current().Name() }
