package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// streamPin is the fingerprint of invoke-zipf's first 300
// transactions (plus allocation) for seed 1. It changes only if the
// generator, the transaction encoding or the deterministic signer
// changes — each of which makes old and new results incomparable.
const streamPin = "14965140f489c69d43a9f9ccc2dbe5811d134fe6921784f4005a2e95f37fe14a"

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := findWorkload("invoke-zipf")
	hash := func(seed int64) string {
		in, err := generate(w, seed, 300)
		if err != nil {
			t.Fatal(err)
		}
		return in.streamHash()
	}
	a, b, other := hash(1), hash(1), hash(2)
	if a != b {
		t.Fatalf("same seed gave two streams: %s and %s", a, b)
	}
	if a == other {
		t.Fatal("seeds 1 and 2 gave the same stream")
	}
	if a != streamPin {
		t.Fatalf("stream for seed 1 is %s, pinned %s", a, streamPin)
	}
}

func TestGeneratedNoncesAreInOrderPerConnection(t *testing.T) {
	w, _ := findWorkload("transfer-steady")
	in, err := generate(w, 7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	next := map[string]uint64{}
	conn := map[string]int{}
	for k, g := range in.txs {
		from := g.tx.From.Hex()
		if g.tx.Nonce != next[from] {
			t.Fatalf("sender %s: nonce %d, want %d", from[:8], g.tx.Nonce, next[from])
		}
		next[from]++
		if c, seen := conn[from]; seen && c != k%submitConns {
			t.Fatalf("sender %s moved from connection %d to %d", from[:8], c, k%submitConns)
		}
		conn[from] = k % submitConns
		if g.tx.From == g.tx.To {
			t.Fatalf("sender %s pays itself", from[:8])
		}
		if err := g.tx.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.99, 5}, {0.2, 1}, {1, 5}} {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A failed operation is +Inf: it must raise the tail, not vanish.
	withFailure := append([]float64{math.Inf(1)}, vals...)
	if got := percentile(withFailure, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
	if got := median(withFailure); got != 3 {
		t.Errorf("median with a failure = %v, want 3", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestOpenLoopCountsTheWaitBehindAStall drives submit against a server
// that stalls once. Requests due during the stall are answered at once
// when they finally go out, so timed from their send they look fast;
// timed from when they were due, as the harness does, they are slow.
func TestOpenLoopCountsTheWaitBehindAStall(t *testing.T) {
	const (
		stallAt = 10
		stall   = 150 * time.Millisecond
		gap     = 5 * time.Millisecond
		count   = 60
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	// One connection's share of a stream: with conn 0 of submitConns,
	// index k of the stream is request k/submitConns.
	txs := make([]genTx, count*submitConns)
	for i := range txs {
		txs[i].body = []byte(`{}`)
	}
	recs := make([]txRecord, len(txs))
	target := &proc{httpAddr: strings.TrimPrefix(srv.URL, "http://")}
	t0 := time.Now().Add(10 * time.Millisecond)
	submit(context.Background(), target, txs, recs, 0, t0, gap/submitConns, t0.Add(time.Hour))

	fromDue := func(req int) time.Duration { r := recs[req*submitConns]; return r.acked.Sub(r.due) }
	fromSend := func(req int) time.Duration { r := recs[req*submitConns]; return r.acked.Sub(r.sent) }
	for req := 0; req < count; req++ {
		if r := recs[req*submitConns]; r.acked.IsZero() {
			t.Fatalf("request %d failed: %s", req, r.err)
		}
		if want := t0.Add(time.Duration(req) * gap); !recs[req*submitConns].due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", req, recs[req*submitConns].due, want)
		}
	}
	if d := fromDue(stallAt); d < stall {
		t.Fatalf("the stalled request took %v from due, want at least %v", d, stall)
	}
	// The next request was due one gap later and waited for the stall to end.
	next := stallAt + 1
	if d := fromDue(next); d < stall-2*gap {
		t.Errorf("request after the stall: %v from due time, want about %v", d, stall-gap)
	}
	if d := fromSend(next); d > stall/3 {
		t.Errorf("request after the stall: %v from send, the server answered it at once", d)
	}
	// The backlog clears: the last request is on time again.
	if d := fromDue(count - 1); d > stall/3 {
		t.Errorf("last request still %v late", d)
	}
	var lat []float64
	for req := 0; req < count; req++ {
		lat = append(lat, ms(fromDue(req)))
	}
	if p99 := percentile(lat, 0.99); p99 < ms(stall) {
		t.Errorf("p99 from due time %v ms hides the %v stall", p99, stall)
	}
}

func TestCompareFlagsOnlyWorsening(t *testing.T) {
	lower := manifestMetric{Name: "latency", Better: "lower", Bound: 0.1}
	higher := manifestMetric{Name: "tps", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		m    manifestMetric
		a, b float64
		want float64
	}{
		{lower, 100, 120, 0.2}, {lower, 100, 80, -0.2}, {higher, 100, 80, 0.2}, {higher, 100, 120, -0.2},
	} {
		if got := worsening(c.m, c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("worsening(%s, %v→%v) = %v, want %v", c.m.Name, c.a, c.b, got, c.want)
		}
	}
	man := &manifest{EndToEnd: []manifestMetric{lower, higher}}
	file := func(latency, tps float64, failed int) *resultsFile {
		return &resultsFile{Workloads: map[string]*result{"w": {
			Correct: true, Attempted: 10, Failed: failed,
			EndToEnd: map[string]metric{"latency": {Value: latency}, "tps": {Value: tps}},
		}}}
	}
	base := file(100, 100, 0)
	if got := compareResults(io.Discard, man, base, file(105, 95, 0)); got != 0 {
		t.Errorf("inside both bounds: exit %d, want 0", got)
	}
	if got := compareResults(io.Discard, man, base, file(50, 200, 0)); got != 0 {
		t.Errorf("better on both: exit %d, want 0", got)
	}
	if got := compareResults(io.Discard, man, base, file(115, 100, 0)); got != 1 {
		t.Errorf("latency 15%% worse: exit %d, want 1", got)
	}
	if got := compareResults(io.Discard, man, base, file(100, 100, 1)); got != 1 {
		t.Errorf("a failed operation: exit %d, want 1", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs a whole small benchmark — two real ledgerd processes,
// a 3 s window, the fault, the checks and a 4-block replay — and holds
// the metric names it emits against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts ledgerd processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ledgerd")
	if out, err := exec.Command("go", "build", "-o", bin, "dcsledger/cmd/ledgerd").CombinedOutput(); err != nil {
		t.Fatalf("build ledgerd: %v\n%s", err, out)
	}
	w, _ := findWorkload("transfer-steady")
	res, err := runWorkload(context.Background(), runConfig{
		w: w, seed: 3, window: 3 * time.Second, nodes: 2,
		replay: true, replayBlocks: 4,
		bin: bin, workDir: filepath.Join(dir, "work"), traceDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d of %d: %v", res.Correct, res.Failed, res.Attempted, res.Checks)
	}

	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	compareNames := func(kind string, declared []manifestMetric, emitted map[string]metric) {
		var want, got []string
		for _, m := range declared {
			want = append(want, m.Name)
			if e, ok := emitted[m.Name]; ok && e.Unit != m.Unit {
				t.Errorf("%s %s: emitted unit %q, BENCHMARK.json says %q", kind, m.Name, e.Unit, m.Unit)
			}
		}
		for name, m := range emitted {
			got = append(got, name)
			if !metricName.MatchString(name) {
				t.Errorf("%s metric name %q is not a valid name", kind, name)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s %s = %v", kind, name, m.Value)
			}
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(want, " ") != strings.Join(got, " ") {
			t.Errorf("%s metrics differ from BENCHMARK.json\n emitted: %v\ndeclared: %v", kind, got, want)
		}
	}
	compareNames("end_to_end", man.EndToEnd, res.EndToEnd)
	compareNames("per_layer", man.PerLayer, res.PerLayer)
	for name, m := range res.EndToEnd {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
		}
	}

	var declared []string
	for _, mw := range man.Workloads {
		declared = append(declared, mw.Name)
	}
	if got := workloadNames(); got != strings.Join(declared, ", ") {
		t.Errorf("workloads are %q, BENCHMARK.json declares %q", got, strings.Join(declared, ", "))
	}
	if _, err := os.Stat(filepath.Join(dir, "trace-transfer-steady.jsonl")); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}
