package server

import (
	"time"

	"repro/internal/embed"
	"repro/internal/vecmath"
)

// batchCapable is the optional fast path: encoders that can embed a whole
// batch in one call (embed.Model does, with internal parallelism). When
// the wrapped encoder lacks it, the batcher still coalesces requests but
// encodes them one by one on the dispatcher goroutine.
type batchCapable interface {
	EncodeBatch(texts []string) *vecmath.Matrix
}

// BatcherConfig sizes a micro-batcher (shared by the encode and search
// batchers; both default MaxBatch to 32). There is no gather window to
// tune: a batch is whatever had already arrived when the dispatcher came
// back for more (see batchCore).
type BatcherConfig struct {
	// MaxBatch caps how many pending requests are folded into one batch.
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
// Batcher implements embed.Encoder, so a core.Client can use it directly.
// It is safe for unrestricted concurrent use. Close stops the dispatcher;
// Encode calls after Close fall back to direct single encodes.
type Batcher struct {
	enc     embed.Encoder
	core    *batchCore[encodeReq]
	replies replyPool[[]float32]
}

type encodeReq struct {
	text string
	// dst, when non-nil, receives the embedding via append(dst[:0], …) —
	// the pooled-buffer path. The dispatcher writes into it and sends it
	// back on reply, so ownership transfers cleanly.
	dst   []float32
	reply chan []float32
}

// NewBatcher wraps enc in a micro-batcher and starts its dispatcher.
// MaxBatch defaults to 32. A lone Encode is dispatched at once; Encodes
// that arrive while the dispatcher is inside the encoder share the next
// batch.
func NewBatcher(enc embed.Encoder, cfg BatcherConfig) *Batcher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	b := &Batcher{
		enc:     enc,
		replies: make(replyPool[[]float32], cfg.MaxBatch*4),
	}
	b.core = newBatchCore(cfg.MaxBatch, b.run)
	return b
}

// Encode implements embed.Encoder: the call blocks until its text has been
// embedded as part of some batch.
func (b *Batcher) Encode(text string) []float32 {
	return b.encode(text, nil)
}

// EncodeInto is the pooled-buffer encode: the embedding lands in
// dst[:0] (grown if needed), preserving the caller's recycled buffer
// through the batching hand-off.
func (b *Batcher) EncodeInto(text string, dst []float32) []float32 {
	if dst == nil {
		// A nil dst would be indistinguishable from the plain path in
		// the dispatcher; give it capacity so ownership stays with us.
		dst = make([]float32, 0, b.enc.Dim())
	}
	return b.encode(text, dst)
}

func (b *Batcher) encode(text string, dst []float32) []float32 {
	req := encodeReq{text: text, dst: dst, reply: b.replies.get()}
	if !b.core.submit(req) {
		b.replies.put(req.reply)
		if dst != nil {
			return append(dst[:0], b.enc.Encode(text)...)
		}
		return b.enc.Encode(text)
	}
	out := <-req.reply
	b.replies.put(req.reply)
	return out
}

// Dim implements embed.Encoder.
func (b *Batcher) Dim() int { return b.enc.Dim() }

// Name implements embed.Encoder.
func (b *Batcher) Name() string { return b.enc.Name() + "+batch" }

// Close stops the dispatcher after draining in-flight requests. Encode
// calls that arrive during or after Close encode directly; redundant
// Close calls just wait for the first to finish.
func (b *Batcher) Close() { b.core.close() }

// BatcherStats snapshots coalescing effectiveness.
type BatcherStats struct {
	// Requests is the number of calls served.
	Requests int64
	// Batches is the number of batched passes dispatched (including
	// singleton passes).
	Batches int64
	// Coalesced is the number of requests that shared a pass with at
	// least one other request.
	Coalesced int64
	// MeanBatch is Requests/Batches.
	MeanBatch float64
}

// QueueDepth reports encode requests currently waiting for the
// dispatcher — the live backlog behind the batch it is running.
func (b *Batcher) QueueDepth() int { return b.core.queueDepth() }

// OnBatch installs fn to run on the dispatcher goroutine after each
// batch is gathered, with the batch's size. At most one hook; later
// calls replace earlier ones. fn must be fast and safe for concurrent
// use with the caller.
func (b *Batcher) OnBatch(fn func(size int)) { b.core.setOnBatch(fn) }

// Stats reports coalescing counters.
func (b *Batcher) Stats() BatcherStats { return b.core.stats() }

// run encodes one gathered batch and delivers the rows, each into its
// request's recycled buffer when one was supplied.
func (b *Batcher) run(batch []encodeReq) {
	b.core.batches.Add(1)
	b.core.fireOnBatch(len(batch))
	if len(batch) == 1 {
		batch[0].reply <- b.encodeOne(batch[0])
		return
	}
	b.core.batched.Add(int64(len(batch)))
	if bc, ok := b.enc.(batchCapable); ok {
		texts := make([]string, len(batch))
		for i, req := range batch {
			texts[i] = req.text
		}
		out := bc.EncodeBatch(texts)
		for i, req := range batch {
			if req.dst != nil {
				req.reply <- append(req.dst[:0], out.Row(i)...)
			} else {
				req.reply <- vecmath.Clone(out.Row(i))
			}
		}
		return
	}
	for _, req := range batch {
		req.reply <- b.encodeOne(req)
	}
}

func (b *Batcher) encodeOne(req encodeReq) []float32 {
	if req.dst != nil {
		return embed.EncodeInto(b.enc, req.text, req.dst)
	}
	return b.enc.Encode(req.text)
}
