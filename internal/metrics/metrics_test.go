package metrics

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCollectOncePerScrape: the series of every collector land in the
// snapshot, and one WriteTo (one scrape) invokes each registered collector
// exactly once, however many series it emits.
func TestCollectOncePerScrape(t *testing.T) {
	r := NewRegistry()
	var callsC, callsD int
	r.Collect(func(emit func(string, int64)) {
		callsC++
		emit("a", 7)
		emit("b", -2)
		emit("c", 42)
		emit("c2", 43)
	})
	r.Collect(func(emit func(string, int64)) {
		callsD++
		emit("d", 44)
	})
	snap := r.Snapshot()
	if snap["a"] != 7 || snap["b"] != -2 || snap["c"] != 42 || snap["c2"] != 43 || snap["d"] != 44 {
		t.Fatalf("snapshot = %v", snap)
	}
	callsC, callsD = 0, 0
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if callsC != 1 || callsD != 1 {
		t.Fatalf("one WriteTo ran the collectors %d and %d times, want once each", callsC, callsD)
	}
	if want := "a 7\nb -2\nc 42\nc2 43\nd 44\n"; sb.String() != want {
		t.Fatalf("rendered %q, want %q", sb.String(), want)
	}
}

func TestFuncGaugeMayTouchRegistry(t *testing.T) {
	// Collectors run outside the registry lock, so one may register more
	// collectors and histograms without deadlocking.
	r := NewRegistry()
	r.Collect(func(emit func(string, int64)) {
		emit("derived", 20)
		r.RegisterHistogram(NewHistogram("made_in_collector_seconds"))
		r.Collect(func(emit func(string, int64)) { emit("made_in_collector", 1) })
	})
	if snap := r.Snapshot(); snap["derived"] != 20 {
		t.Fatalf("derived = %d", snap["derived"])
	}
	// What the first scrape registered is in the second.
	if snap := r.Snapshot(); snap["made_in_collector"] != 1 {
		t.Fatalf("made_in_collector = %d", snap["made_in_collector"])
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil || !strings.Contains(sb.String(), "made_in_collector_seconds_count 0\n") {
		t.Fatalf("rendered %q, %v", sb.String(), err)
	}
}

func TestHandlerOutput(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(emit func(string, int64)) {
		emit("p2p_sent_total", 3)
		emit("p2p_conns", 1)
	})
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "p2p_sent_total 3\n") || !strings.Contains(body, "p2p_conns 1\n") {
		t.Fatalf("body = %q", body)
	}
	// Sorted output: "p2p_conns" before "p2p_sent_total".
	if strings.Index(body, "p2p_conns") > strings.Index(body, "p2p_sent_total") {
		t.Fatalf("output not sorted: %q", body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
}

// TestConcurrentUse registers collectors and histograms while other
// goroutines scrape: every scrape sees the series registered before it
// started, and the last sees them all.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var hot atomic.Int64
	r.Collect(func(emit func(string, int64)) { emit("hot", hot.Load()) })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("g%d", i)
			for j := 0; j < 100; j++ {
				hot.Add(1)
				if j == 0 {
					r.Collect(func(emit func(string, int64)) { emit(name, 1) })
					r.RegisterHistogram(NewHistogram(name + "_seconds"))
				}
				if snap := r.Snapshot(); snap[name] != 1 || snap["hot"] < int64(j+1) {
					t.Errorf("scrape %d of %s: %s = %d, hot = %d", j, name, name, snap[name], snap["hot"])
					return
				}
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap) != 9 || snap["hot"] != 800 {
		t.Fatalf("final scrape %v, want hot = 800 and g0..g7", snap)
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil || strings.Count(sb.String(), "_seconds_count 0\n") != 8 {
		t.Fatalf("rendered %q, %v", sb.String(), err)
	}
}
