package server

import (
	"time"

	"repro/internal/embed"
)

// Deprecated: BatcherConfig configures nothing. Both fields are read by
// nothing; the type stays only because the frozen bench/stack.go builds a
// Batcher and a SearchBatcher with it, and goes in the benchmark PR that
// re-captures BENCHMARK.json.
type BatcherConfig struct {
	MaxBatch int
	MaxWait  time.Duration
}

// Deprecated: Batcher coalesces nothing: every call goes straight to the
// wrapped encoder, as a tenant's encode runs on its request's goroutine.
// The type stays only because the frozen bench/stack.go and bench/trace.go
// build one, and goes in the benchmark PR that re-captures BENCHMARK.json.
type Batcher struct{ enc embed.Encoder }

// NewBatcher returns the pass-through encoder over enc; the config is
// ignored.
func NewBatcher(enc embed.Encoder, _ BatcherConfig) *Batcher { return &Batcher{enc: enc} }

// Encode implements embed.Encoder with the wrapped encoder's Encode.
func (b *Batcher) Encode(text string) []float32 { return b.enc.Encode(text) }

// EncodeInto implements embed.IntoEncoder with embed.EncodeInto on the
// wrapped encoder.
func (b *Batcher) EncodeInto(text string, dst []float32) []float32 {
	return embed.EncodeInto(b.enc, text, dst)
}

// Dim implements embed.Encoder.
func (b *Batcher) Dim() int { return b.enc.Dim() }

// Name implements embed.Encoder: the wrapped encoder's name, unchanged.
func (b *Batcher) Name() string { return b.enc.Name() }

// Close does nothing.
func (*Batcher) Close() {}

// Stats is always zero.
func (*Batcher) Stats() BatcherStats { return BatcherStats{} }

// Deprecated: BatcherStats is always zero; it keeps the two fields the
// frozen bench/traced.go reads.
type BatcherStats struct {
	Requests int64
	Batches  int64
}
