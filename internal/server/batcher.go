package server

import (
	"time"

	"repro/internal/embed"
	"repro/internal/vecmath"
)

// batchCapable is the optional fast path: encoders that can embed a whole
// batch in one call (embed.Model does, with internal parallelism). When
// the wrapped encoder lacks it, the batcher still coalesces requests but
// the batch's leader encodes them one by one.
type batchCapable interface {
	EncodeBatch(texts []string) *vecmath.Matrix
}

// BatcherConfig sizes the encode micro-batcher (MaxBatch defaults to
// 32). There is no gather window to tune: a batch is whatever parked
// behind the passes in flight (see combiner).
type BatcherConfig struct {
	// MaxBatch caps how many parked requests are folded into one pass.
	MaxBatch int
	// Deprecated: MaxWait is read by nothing. It was the timer gather's
	// window; the field stays only because the frozen bench/stack.go sets
	// it in two struct literals, and goes in the benchmark PR that
	// re-captures BENCHMARK.json.
	MaxWait time.Duration
}

// Batcher coalesces concurrent Encode calls — across tenants — into
// single batch calls on the underlying encoder. Per-request embedding
// work is identical; what batching buys is one parallel EncodeBatch sweep
// instead of many small Encode calls contending for cores, keeping the
// serving hot path fast when hundreds of users query at once.
//
// An Encode runs on its caller's goroutine at once (a mutex and a direct
// call) unless as many encodes as there are processors are already
// running; those that arrive then share the next pass, led by the first
// of them (see combiner).
//
// Batcher implements embed.Encoder, so a core.Client can use it directly.
// It is safe for unrestricted concurrent use and owns no goroutine. Close
// waits out the passes in flight; Encode calls during and after Close
// encode directly.
type Batcher struct {
	enc  embed.Encoder
	comb combiner[encodeReq, []float32]
}

type encodeReq struct {
	text string
	// dst, when non-nil, receives the embedding via append(dst[:0], …):
	// the pooled-buffer path. Whoever encodes the request writes into it.
	dst []float32
}

// NewBatcher wraps enc in a micro-batcher. MaxBatch defaults to 32.
func NewBatcher(enc embed.Encoder, cfg BatcherConfig) *Batcher {
	b := &Batcher{enc: enc}
	b.comb.init(cfg.MaxBatch, b.encodeOne, b.encodeBatch)
	return b
}

// Encode implements embed.Encoder: the call returns once its text has
// been embedded, alone or as part of some batch.
func (b *Batcher) Encode(text string) []float32 {
	return b.comb.do(encodeReq{text: text})
}

// EncodeInto is the pooled-buffer encode: the embedding lands in
// dst[:0] (grown if needed), preserving the caller's recycled buffer
// through a batched pass.
func (b *Batcher) EncodeInto(text string, dst []float32) []float32 {
	if dst == nil {
		// A nil dst would be indistinguishable from the plain path; give
		// it capacity so ownership stays with us.
		dst = make([]float32, 0, b.enc.Dim())
	}
	return b.comb.do(encodeReq{text: text, dst: dst})
}

// Dim implements embed.Encoder.
func (b *Batcher) Dim() int { return b.enc.Dim() }

// Name implements embed.Encoder.
func (b *Batcher) Name() string { return b.enc.Name() + "+batch" }

// Close returns once every pass in flight, and every Encode parked behind
// one, has been served. Encode calls that arrive during or after Close
// encode directly.
func (b *Batcher) Close() { b.comb.close() }

// BatcherStats snapshots coalescing effectiveness. A request is counted
// with the pass that serves it, so Requests is always the sum of the
// passes' sizes.
type BatcherStats struct {
	// Requests is the number of calls served.
	Requests int64
	// Batches is the number of passes run (including passes of one, and
	// the direct calls made after Close).
	Batches int64
	// Coalesced is the number of requests that shared a pass with at
	// least one other request.
	Coalesced int64
	// MeanBatch is Requests/Batches.
	MeanBatch float64
}

// QueueDepth reports encode requests currently parked behind the passes
// in flight.
func (b *Batcher) QueueDepth() int { return b.comb.queueDepth() }

// OnBatch installs fn to run on the leader's goroutine as each pass
// starts, with the pass's size. At most one hook; later calls replace
// earlier ones. fn must be fast and safe for concurrent use.
func (b *Batcher) OnBatch(fn func(size int)) { b.comb.setOnBatch(fn) }

// Stats reports coalescing counters.
func (b *Batcher) Stats() BatcherStats { return b.comb.stats() }

// encodeBatch encodes one batch of two or more, each row into its
// request's recycled buffer when one was supplied.
func (b *Batcher) encodeBatch(batch []*parked[encodeReq, []float32]) {
	bc, ok := b.enc.(batchCapable)
	if !ok {
		for _, p := range batch {
			p.out = b.encodeOne(p.req)
		}
		return
	}
	texts := make([]string, len(batch))
	for i, p := range batch {
		texts[i] = p.req.text
	}
	out := bc.EncodeBatch(texts)
	for i, p := range batch {
		if p.req.dst != nil {
			p.out = append(p.req.dst[:0], out.Row(i)...)
		} else {
			p.out = vecmath.Clone(out.Row(i))
		}
	}
}

func (b *Batcher) encodeOne(req encodeReq) []float32 {
	if req.dst != nil {
		return embed.EncodeInto(b.enc, req.text, req.dst)
	}
	return b.enc.Encode(req.text)
}
