package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dcsledger/internal/metrics"
)

// TestRingOverflowEviction fills a tiny ring past capacity and checks
// the eviction bookkeeping: Len is capped, Total counts everything,
// Evicted counts the overwritten spans, and Snapshot returns the
// surviving window oldest-first.
func TestRingOverflowEviction(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Stage: "s", Height: uint64(i), Dur: int64(i)})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := tr.Evicted(); got != 6 {
		t.Fatalf("Evicted = %d, want 6", got)
	}
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i, s := range snap {
		if want := uint64(6 + i); s.Height != want {
			t.Errorf("snapshot[%d].Height = %d, want %d (oldest-first)", i, s.Height, want)
		}
	}
}

// TestRecordStampsStartAndRun: zero Start gets the wall clock, empty
// Run inherits the tracer label, and explicit values survive.
func TestRecordStampsStartAndRun(t *testing.T) {
	tr := NewTracer(8)
	tr.SetRun("pow")
	before := time.Now().UnixNano()
	tr.Record(Span{Stage: "a", Dur: 1})
	tr.Record(Span{Stage: "b", Dur: 2, Run: "custom", Start: 42})
	after := time.Now().UnixNano()

	snap := tr.Snapshot()
	if snap[0].Run != "pow" {
		t.Errorf("inherited run = %q, want pow", snap[0].Run)
	}
	if snap[0].Start < before || snap[0].Start > after {
		t.Errorf("stamped start %d outside [%d,%d]", snap[0].Start, before, after)
	}
	if snap[1].Run != "custom" || snap[1].Start != 42 {
		t.Errorf("explicit fields overwritten: %+v", snap[1])
	}
}

// TestJSONLSinkStreams: every Record is mirrored to the sink as one
// JSON object per line, and WriteJSONL re-emits the ring identically.
func TestJSONLSinkStreams(t *testing.T) {
	var sink bytes.Buffer
	tr := NewTracer(8)
	tr.SetSink(&sink)
	tr.SetRun("ordering")
	for i := 0; i < 3; i++ {
		tr.Record(Span{Stage: StageOrderingCut, Height: uint64(i), Dur: int64(i + 1)})
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("sink lines = %d, want 3", len(lines))
	}
	for i, line := range lines {
		var s Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("sink line %d not JSON: %v", i, err)
		}
		if s.Run != "ordering" || s.Stage != StageOrderingCut || s.Height != uint64(i) {
			t.Errorf("sink span %d = %+v", i, s)
		}
	}

	var ring bytes.Buffer
	if err := tr.WriteJSONL(&ring); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if ring.String() != sink.String() {
		t.Errorf("WriteJSONL != sink stream:\nring: %q\nsink: %q", ring.String(), sink.String())
	}
	if err := tr.SinkErr(); err != nil {
		t.Errorf("SinkErr = %v, want nil", err)
	}
}

// failWriter fails after n successful writes.
type failWriter struct {
	n   int
	err error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

// TestSinkErrLatches: the first sink write error disables the sink and
// is reported by SinkErr; the ring keeps recording regardless.
func TestSinkErrLatches(t *testing.T) {
	boom := errors.New("disk full")
	tr := NewTracer(8)
	tr.SetSink(&failWriter{n: 1, err: boom})
	tr.Record(Span{Stage: "a", Dur: 1}) // streams fine
	tr.Record(Span{Stage: "b", Dur: 2}) // sink fails, latches
	tr.Record(Span{Stage: "c", Dur: 3}) // sink skipped
	if err := tr.SinkErr(); !errors.Is(err, boom) {
		t.Fatalf("SinkErr = %v, want %v", err, boom)
	}
	if got := tr.Len(); got != 3 {
		t.Fatalf("ring Len = %d after sink failure, want 3", got)
	}
	// SetSink resets the latch.
	tr.SetSink(&bytes.Buffer{})
	if err := tr.SinkErr(); err != nil {
		t.Fatalf("SinkErr after SetSink = %v, want nil", err)
	}
}

// TestSummaryAndStages checks the per-stage aggregation: counts,
// min/max/mean, nearest-rank quantiles, and the sorted stage list.
func TestSummaryAndStages(t *testing.T) {
	tr := NewTracer(16)
	for i := 1; i <= 4; i++ { // fast: 1,2,3,4ms
		tr.Record(Span{Stage: "fast", Dur: int64(i) * int64(time.Millisecond)})
	}
	tr.Record(Span{Stage: "slow", Dur: int64(time.Second)})

	stages := tr.Stages()
	if want := []string{"fast", "slow"}; len(stages) != 2 || stages[0] != want[0] || stages[1] != want[1] {
		t.Fatalf("Stages = %v, want %v", stages, want)
	}
	sum := tr.Summary()
	fast := sum["fast"]
	if fast.Count != 4 {
		t.Fatalf("fast count = %d, want 4", fast.Count)
	}
	if fast.Min != time.Millisecond || fast.Max != 4*time.Millisecond {
		t.Errorf("fast min/max = %v/%v", fast.Min, fast.Max)
	}
	if want := 2500 * time.Microsecond; fast.Mean != want {
		t.Errorf("fast mean = %v, want %v", fast.Mean, want)
	}
	// Nearest-rank p50 of [1,2,3,4]ms: rank = int(0.5*4+0.5)-1 = 1 → 2ms.
	if want := 2 * time.Millisecond; fast.P50 != want {
		t.Errorf("fast p50 = %v, want %v", fast.P50, want)
	}
	// Nearest-rank p95: rank = int(0.95*4+0.5)-1 = 3 → 4ms.
	if want := 4 * time.Millisecond; fast.P95 != want {
		t.Errorf("fast p95 = %v, want %v", fast.P95, want)
	}
	slow := sum["slow"]
	if slow.Count != 1 || slow.P50 != time.Second || slow.P95 != time.Second {
		t.Errorf("slow stats = %+v", slow)
	}
}

// TestNilTracerSafe: every method must be a no-op on a nil *Tracer so
// instrumentation points never need nil checks.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.SetRun("x")
	tr.SetSink(&bytes.Buffer{})
	tr.Record(Span{Stage: "a"})
	if tr.Len() != 0 || tr.Total() != 0 || tr.Evicted() != 0 {
		t.Fatal("nil tracer reported non-zero counts")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer snapshot non-nil")
	}
	if err := tr.SinkErr(); err != nil {
		t.Fatalf("nil tracer SinkErr = %v", err)
	}
	if got := tr.Summary(); len(got) != 0 {
		t.Fatalf("nil tracer summary = %v", got)
	}
	if got := tr.Stages(); len(got) != 0 {
		t.Fatalf("nil tracer stages = %v", got)
	}
}

// TestConcurrentRecord exercises Record/Snapshot/Summary from many
// goroutines — the `make race` gate runs this under -race.
func TestConcurrentRecord(t *testing.T) {
	tr := NewTracer(128)
	tr.SetSink(&bytes.Buffer{})
	const (
		goroutines = 8
		perG       = 500
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Record(Span{Stage: fmt.Sprintf("s%d", g%3), Dur: int64(i)})
				if i%100 == 0 {
					_ = tr.Snapshot()
					_ = tr.Summary()
				}
			}
		}(g)
	}
	wg.Wait()
	if want := uint64(goroutines * perG); tr.Total() != want {
		t.Fatalf("Total = %d, want %d", tr.Total(), want)
	}
	if tr.Len() != 128 {
		t.Fatalf("Len = %d, want 128", tr.Len())
	}
	if want := uint64(goroutines*perG - 128); tr.Evicted() != want {
		t.Fatalf("Evicted = %d, want %d", tr.Evicted(), want)
	}
}

// TestHandler checks both response modes of the GET /trace handler:
// plain requests stream NDJSON, ?summary=1 returns the aggregate.
func TestHandler(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Span{Stage: StageBlockVerify, Dur: int64(time.Millisecond), Height: 3})
	tr.Record(Span{Stage: StageStateApply, Dur: int64(2 * time.Millisecond), Height: 3})
	h := Handler(tr)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("ndjson Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(rec.Body)
	var stages []string
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("ndjson line %q: %v", sc.Text(), err)
		}
		stages = append(stages, s.Stage)
	}
	if len(stages) != 2 || stages[0] != StageBlockVerify || stages[1] != StageStateApply {
		t.Fatalf("ndjson stages = %v", stages)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?summary=1", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("summary Content-Type = %q", ct)
	}
	var summary struct {
		Total   uint64                `json:"total"`
		Evicted uint64                `json:"evicted"`
		Stages  map[string]StageStats `json:"stages"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&summary); err != nil {
		t.Fatalf("summary decode: %v", err)
	}
	if summary.Total != 2 || summary.Evicted != 0 {
		t.Errorf("summary total/evicted = %d/%d", summary.Total, summary.Evicted)
	}
	if s, ok := summary.Stages[StageBlockVerify]; !ok || s.Count != 1 {
		t.Errorf("summary missing %s: %+v", StageBlockVerify, summary.Stages)
	}
}

// TestObserverFeedsHistogramAndTracer: one Observe call lands in the
// stage's histogram (under the tabled series name) and in the tracer with
// the same duration; either half may be absent; a stage outside the table
// is traced only.
func TestObserverFeedsHistogramAndTracer(t *testing.T) {
	tr := NewTracer(8)
	o := NewObserver("n0", tr, StageBlockConnect, StageOrphanAdopt)
	reg := metrics.NewRegistry()
	o.Register(reg)

	start := time.Unix(100, 0)
	o.Observe(StageBlockConnect, start, 2*time.Millisecond, At{Height: 7, N: 3, Block: "abcd1234"})
	o.Observe(StageOrphanAdopt, time.Time{}, time.Millisecond, At{Peer: "remote"}) // no histogram, zero start
	o.Observe(StageStateApply, start, time.Millisecond, At{})                      // not one of this observer's

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "node_block_connect_seconds_count 1\n") ||
		!strings.Contains(out, "node_block_connect_seconds_sum 0.002\n") ||
		strings.Contains(out, "orphan_adopt") || strings.Contains(out, "node_state_apply_seconds") {
		t.Fatalf("registry renders:\n%s", out)
	}
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	want := Span{Stage: StageBlockConnect, Start: start.UnixNano(), Dur: int64(2 * time.Millisecond), Peer: "n0", Height: 7, N: 3, Block: "abcd1234"}
	if spans[0] != want {
		t.Fatalf("span %+v, want %+v", spans[0], want)
	}
	if s := spans[1]; s.Peer != "remote" || s.Start == 0 || s.Start == (time.Time{}).UnixNano() {
		t.Fatalf("zero-start span with its own peer: %+v", s)
	}

	// Neither half wired: a no-op, not a panic.
	var off Observer
	off.Observe(StageBlockConnect, start, time.Millisecond, At{})
}
