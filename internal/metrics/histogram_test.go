package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the le-inclusive Prometheus
// semantics: a value exactly equal to a bucket's upper bound lands in
// that bucket, one just above it lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram("edge_seconds", 0.1, 1, 10)
	h.Observe(0.1)  // == first bound → bucket 0
	h.Observe(0.11) // just above → bucket 1
	h.Observe(1)    // == second bound → bucket 1
	h.Observe(10)   // == last bound → bucket 2
	h.Observe(10.5) // above every bound → +Inf overflow

	snap := h.Snapshot()
	if got, want := len(snap.Bounds), 3; got != want {
		t.Fatalf("bounds = %d, want %d", got, want)
	}
	// Cumulative: <=0.1 → 1, <=1 → 3, <=10 → 4, +Inf → 5.
	wantCum := []uint64{1, 3, 4, 5}
	for i, want := range wantCum {
		if snap.Cumulative[i] != want {
			t.Errorf("cumulative[%d] = %d, want %d (snapshot %+v)", i, snap.Cumulative[i], want, snap)
		}
	}
	if snap.Count != 5 {
		t.Errorf("count = %d, want 5", snap.Count)
	}
	wantSum := 0.1 + 0.11 + 1 + 10 + 10.5
	if math.Abs(snap.Sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", snap.Sum, wantSum)
	}
}

// TestHistogramBoundsSanitized checks constructor hygiene: bounds are
// sorted, duplicates collapse, and non-finite bounds are dropped (+Inf
// is implicit, never an explicit bucket).
func TestHistogramBoundsSanitized(t *testing.T) {
	h := NewHistogram("clean_seconds", 5, 1, math.Inf(1), 1, math.NaN(), 0.5, math.Inf(-1))
	snap := h.Snapshot()
	want := []float64{0.5, 1, 5}
	if len(snap.Bounds) != len(want) {
		t.Fatalf("bounds = %v, want %v", snap.Bounds, want)
	}
	for i := range want {
		if snap.Bounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", snap.Bounds, want)
		}
	}
	if got, want := len(snap.Cumulative), len(snap.Bounds)+1; got != want {
		t.Fatalf("cumulative buckets = %d, want %d (+Inf overflow)", got, want)
	}
}

// TestHistogramDefaultBuckets: no explicit bounds means DefBuckets.
func TestHistogramDefaultBuckets(t *testing.T) {
	h := NewHistogram("def_seconds")
	snap := h.Snapshot()
	if len(snap.Bounds) != len(DefBuckets) {
		t.Fatalf("default bounds = %d, want %d", len(snap.Bounds), len(DefBuckets))
	}
	h.ObserveDuration(2 * time.Millisecond)
	snap = h.Snapshot()
	if snap.Count != 1 {
		t.Fatalf("count = %d, want 1", snap.Count)
	}
}

// TestHistogramConcurrentObserve hammers Observe from many goroutines —
// the `make race` gate runs this under -race, proving the lock-free
// bucket/sum updates are sound. Count and Sum must both be exact.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram("conc_seconds", 0.001, 0.01, 0.1, 1)
	const (
		goroutines = 8
		perG       = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Spread observations across all buckets including overflow.
				h.Observe(float64(i%5) * 0.03)
			}
		}(g)
	}
	wg.Wait()

	snap := h.Snapshot()
	if want := uint64(goroutines * perG); snap.Count != want {
		t.Fatalf("count = %d, want %d", snap.Count, want)
	}
	// Each goroutine observes 0, .03, .06, .09, .12 cycling: per cycle sum 0.3.
	wantSum := float64(goroutines) * float64(perG/5) * 0.30
	if math.Abs(snap.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", snap.Sum, wantSum)
	}
	if snap.Cumulative[len(snap.Cumulative)-1] != snap.Count {
		t.Fatalf("+Inf bucket %d != count %d",
			snap.Cumulative[len(snap.Cumulative)-1], snap.Count)
	}
}

// TestRegistryGoldenRendering is the golden test for the text
// exposition: a registry holding collected series and a histogram must
// render byte-for-byte in sorted family order with
// the histogram's bucket/sum/count series grouped.
func TestRegistryGoldenRendering(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(emit func(string, int64)) {
		emit("zz_total", 7)
		emit("aa_gauge", -3)
	})
	r.Collect(func(emit func(string, int64)) { emit("mm_func", 11) })
	h := r.RegisterHistogram(NewHistogram("bb_lat_seconds", 0.5, 2))
	h.Observe(0.25)
	h.Observe(0.5) // boundary: lands in the 0.5 bucket
	h.Observe(3)   // overflow

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	want := "aa_gauge -3\n" +
		"bb_lat_seconds_bucket{le=\"0.5\"} 2\n" +
		"bb_lat_seconds_bucket{le=\"2\"} 2\n" +
		"bb_lat_seconds_bucket{le=\"+Inf\"} 3\n" +
		"bb_lat_seconds_sum 3.75\n" +
		"bb_lat_seconds_count 3\n" +
		"mm_func 11\n" +
		"zz_total 7\n"
	if got := sb.String(); got != want {
		t.Fatalf("golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegisterHistogramFirstWins: attaching a standalone histogram
// under a name that already exists keeps the first-registered family.
func TestRegisterHistogramFirstWins(t *testing.T) {
	r := NewRegistry()
	first := r.RegisterHistogram(NewHistogram("dup_seconds", 1))
	second := NewHistogram("dup_seconds", 2)
	got := r.RegisterHistogram(second)
	if got != first {
		t.Fatalf("RegisterHistogram returned new histogram, want first-registered")
	}
	fresh := NewHistogram("solo_seconds", 1)
	if got := r.RegisterHistogram(fresh); got != fresh {
		t.Fatalf("RegisterHistogram dropped a fresh histogram")
	}
}
