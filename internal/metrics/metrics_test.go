package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sends_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("sends_total") != c {
		t.Fatal("Counter must be get-or-create stable")
	}
	g := r.Gauge("conns")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	if r.Gauge("conns") != g {
		t.Fatal("Gauge must be get-or-create stable")
	}
}

// TestCollectOncePerScrape: a collector's series land in the snapshot
// beside the counters and gauges, and one WriteTo (one scrape) invokes
// each registered collector exactly once, however many series it emits.
func TestCollectOncePerScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(7)
	r.Gauge("b").Set(-2)
	var callsC, callsD int
	r.Collect(func(emit func(string, int64)) {
		callsC++
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
	// Collectors run outside the registry lock, so one may read other
	// metrics — or register more — without deadlocking.
	r := NewRegistry()
	r.Counter("base").Add(10)
	r.Collect(func(emit func(string, int64)) {
		emit("derived", int64(r.Counter("base").Value())*2)
		r.Gauge("made_in_collector").Set(1)
	})
	if snap := r.Snapshot(); snap["derived"] != 20 {
		t.Fatalf("derived = %d", snap["derived"])
	}
}

func TestHandlerOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("p2p_sent_total").Add(3)
	r.Gauge("p2p_conns").Set(1)
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

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hot").Inc()
				r.Gauge("g").Add(1)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hot").Value(); got != 8000 {
		t.Fatalf("hot = %d, want 8000", got)
	}
}
