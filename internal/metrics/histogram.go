package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency buckets in seconds: exponential
// from 100µs to 10s, suitable for the CPU-bound pipeline stages (block
// verify, state apply, fork choice).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// WideBuckets cover queueing and inclusion ages up to block-interval
// scale (seconds to tens of minutes) — use for admit→inclusion age,
// where virtual-time latencies track the block interval, not the CPU.
var WideBuckets = []float64{
	0.001, 0.01, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600, 1800,
}

// Histogram is a fixed-bucket latency histogram with atomic buckets:
// Observe is lock-free (one atomic add per bucket/count plus a CAS loop
// for the sum), so hot paths can record into it concurrently. Bucket
// upper bounds are inclusive (Prometheus `le` semantics) and the
// overflow bucket is rendered as le="+Inf".
type Histogram struct {
	name    string
	bounds  []float64 // sorted, finite upper bounds
	buckets []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram creates a histogram named name with the given bucket
// upper bounds (DefBuckets when none are given). Bounds are sorted and
// deduplicated; non-finite bounds are dropped (+Inf is implicit).
func NewHistogram(name string, bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	clean := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsInf(b, 0) && !math.IsNaN(b) {
			clean = append(clean, b)
		}
	}
	sort.Float64s(clean)
	dedup := clean[:0]
	for i, b := range clean {
		if i == 0 || b != clean[i-1] {
			dedup = append(dedup, b)
		}
	}
	return &Histogram{
		name:    name,
		bounds:  dedup,
		buckets: make([]atomic.Uint64, len(dedup)+1), // +1 = +Inf overflow
	}
}

// Name returns the metric family name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value (seconds, for latency histograms). Values
// equal to a bucket's upper bound land in that bucket (le-inclusive).
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v; len(bounds) = overflow.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	// Bounds are the finite bucket upper bounds.
	Bounds []float64
	// Cumulative[i] counts observations <= Bounds[i]; the final entry
	// (index len(Bounds)) is the +Inf bucket and equals Count.
	Cumulative []uint64
	// Sum is the total of all observed values.
	Sum float64
	// Count is the number of observations.
	Count uint64
}

// Snapshot returns a consistent-enough view: buckets are read once in
// order and cumulated, so Count always equals the +Inf bucket.
func (h *Histogram) Snapshot() HistogramSnapshot {
	cum := make([]uint64, len(h.buckets))
	var running uint64
	for i := range h.buckets {
		running += h.buckets[i].Load()
		cum[i] = running
	}
	return HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: cum,
		Sum:        math.Float64frombits(h.sumBits.Load()),
		Count:      running,
	}
}

// writeTo renders the histogram in the Prometheus text exposition
// format: cumulative `_bucket{le="..."}` series, `_sum`, and `_count`.
func (h *Histogram) writeTo(w io.Writer) (int64, error) {
	snap := h.Snapshot()
	var written int64
	for i, bound := range snap.Bounds {
		n, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
			h.name, formatFloat(bound), snap.Cumulative[i])
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	n, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, snap.Count)
	written += int64(n)
	if err != nil {
		return written, err
	}
	n, err = fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(snap.Sum))
	written += int64(n)
	if err != nil {
		return written, err
	}
	n, err = fmt.Fprintf(w, "%s_count %d\n", h.name, snap.Count)
	written += int64(n)
	return written, err
}

// formatFloat renders a float the way Prometheus clients expect
// (shortest representation that round-trips).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
