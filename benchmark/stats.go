package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarises (0 when
	// the value is a plain count or ratio of counts).
	Samples int `json:"samples,omitempty"`
}

// percentile returns the q-quantile (0 < q <= 1) of values by the
// nearest-rank rule; +Inf entries (failed operations) sort last, so
// they pull the high percentiles up instead of vanishing. Empty input
// gives NaN.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

func median(values []float64) float64 { return percentile(values, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
