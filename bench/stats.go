package main

import (
	"math"
	"sort"
)

// percentile reports the p-th quantile (0 < p < 1) of sorted, linearly
// interpolated between the two nearest ranks. An empty sample gives NaN.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tenBeyond reports whether at least ten of n samples lie beyond the p-th
// quantile — the support a tail percentile needs before it is reported.
func tenBeyond(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// confusion counts hit/miss decisions against the generator's labels.
type confusion struct {
	TP, FP, FN, TN int
}

func (c *confusion) add(label int8, hit bool) {
	switch {
	case label == labelDup && hit:
		c.TP++
	case label == labelDup:
		c.FN++
	case label == labelNonDup && hit:
		c.FP++
	case label == labelNonDup:
		c.TN++
	}
}

// f1 is the F1 score of "serve from cache" decisions.
func (c confusion) f1() float64 {
	return ratio(2*c.TP, 2*c.TP+c.FP+c.FN)
}

// falseHitRate is the share of non-duplicate probes served from cache.
func (c confusion) falseHitRate() float64 {
	return ratio(c.FP, c.FP+c.TN)
}

// ratio is num/den, 0 when there is nothing to divide by.
func ratio[T int | int64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
