// Package metrics implements the semantic-cache evaluation metrics of
// §IV-A.3: the true/false hit/miss confusion matrix and the derived
// precision, recall, F-β and accuracy scores, plus a latency recorder for
// the response-time experiments.
//
// Terminology follows the paper: a *true hit* (TP) is a correct match with
// a cached query; a *false hit* (FP) returns an irrelevant cached response;
// a *true miss* (TN) correctly falls through to the LLM; a *false miss*
// (FN) fails to return an available cached response.
package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Confusion is a 2×2 hit/miss confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one prediction. want/got are hit(true)/miss(false) labels.
func (c *Confusion) Add(want, got bool) {
	switch {
	case want && got:
		c.TP++
	case !want && got:
		c.FP++
	case !want && !got:
		c.TN++
	default:
		c.FN++
	}
}

// Merge accumulates other into c.
func (c *Confusion) Merge(other Confusion) {
	c.TP += other.TP
	c.FP += other.FP
	c.TN += other.TN
	c.FN += other.FN
}

// Total reports the number of recorded predictions.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Precision = TP / (TP + FP); 0 when no positive predictions were made.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall = TP / (TP + FN); 0 when there are no positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Accuracy = (TP + TN) / total.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// FBeta is the weighted harmonic mean of precision and recall. The paper
// uses β=0.5 for end-to-end cache evaluation (precision twice as important
// as recall, §IV-B) and β=1 for the threshold sweeps.
func (c Confusion) FBeta(beta float64) float64 {
	p, r := c.Precision(), c.Recall()
	if p == 0 && r == 0 {
		return 0
	}
	b2 := beta * beta
	denom := b2*p + r
	if denom == 0 {
		return 0
	}
	return (1 + b2) * p * r / denom
}

// F1 is FBeta(1).
func (c Confusion) F1() float64 { return c.FBeta(1) }

// String renders the matrix in the layout of Figures 7 and 9 (rows = real
// label, columns = predicted label, 0 = miss, 1 = hit).
func (c Confusion) String() string {
	return fmt.Sprintf("real\\pred   0(miss)  1(hit)\n0(miss)    %7d %7d\n1(hit)     %7d %7d",
		c.TN, c.FP, c.FN, c.TP)
}

// Scores bundles the four reported metrics for one system/dataset cell of
// Table I.
type Scores struct {
	FScore    float64 // F-β with the table's β
	Precision float64
	Recall    float64
	Accuracy  float64
}

// ScoresFrom extracts Scores from a confusion matrix at the given β.
func ScoresFrom(c Confusion, beta float64) Scores {
	return Scores{
		FScore:    c.FBeta(beta),
		Precision: c.Precision(),
		Recall:    c.Recall(),
		Accuracy:  c.Accuracy(),
	}
}

// DefaultLatencyReservoir is the sample window a zero-value
// LatencyRecorder keeps for percentiles.
const DefaultLatencyReservoir = 4096

// LatencyRecorder collects per-query durations for the response-time
// figures — in constant memory. The mean is exact (running sum/count);
// percentiles come from a uniform reservoir sample, so a long experiment
// run no longer grows memory per request. The zero value is ready to use
// with a DefaultLatencyReservoir-sized window; NewLatencyRecorder picks a
// different one. Not safe for concurrent use: callers synchronise (the
// serving layer's Collector keeps its rows under one mutex).
type LatencyRecorder struct {
	limit   int
	count   int64
	sum     time.Duration
	samples []time.Duration
}

// NewLatencyRecorder builds a recorder keeping at most limit samples for
// percentiles (DefaultLatencyReservoir when limit <= 0).
func NewLatencyRecorder(limit int) *LatencyRecorder {
	if limit <= 0 {
		limit = DefaultLatencyReservoir
	}
	return &LatencyRecorder{limit: limit}
}

// Record adds one sample.
func (l *LatencyRecorder) Record(d time.Duration) {
	if l.limit <= 0 {
		l.limit = DefaultLatencyReservoir
	}
	l.count++
	l.sum += d
	if len(l.samples) < l.limit {
		l.samples = append(l.samples, d)
		return
	}
	// Uniform reservoir sampling: every sample ever recorded is equally
	// likely to be in the window. The shared top-level source keeps the
	// replacement sequences independent across recorders — a per-recorder
	// rand seeded with the constant limit made every tenant's reservoir
	// replay the identical sequence.
	if i := rand.Int63n(l.count); i < int64(l.limit) {
		l.samples[i] = d
	}
}

// Count reports how many samples were ever recorded.
func (l *LatencyRecorder) Count() int64 { return l.count }

// Samples returns the retained sample window — all recorded durations in
// arrival order while under the reservoir limit, a uniform subsample of
// the full run beyond it.
func (l *LatencyRecorder) Samples() []time.Duration { return l.samples }

// Mean returns the average duration over every recorded sample (exact —
// the reservoir only affects percentiles), 0 if empty.
func (l *LatencyRecorder) Mean() time.Duration {
	if l.count == 0 {
		return 0
	}
	return l.sum / time.Duration(l.count)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by nearest-rank.
func (l *LatencyRecorder) Percentile(p float64) time.Duration {
	return l.Percentiles(p)[0]
}

// Percentiles returns the requested percentiles (each 0 ≤ p ≤ 100, by
// nearest-rank) with one sort of the reservoir; zeros when empty.
func (l *LatencyRecorder) Percentiles(ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(l.samples) == 0 {
		return out
	}
	sorted := append([]time.Duration(nil), l.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, p := range ps {
		rank := int(p/100*float64(len(sorted))+0.5) - 1
		out[i] = sorted[max(0, min(rank, len(sorted)-1))]
	}
	return out
}
