package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dcsledger/internal/obs"
)

// TestTraceDemo is the `make trace-demo` target: it runs the reduced
// -stages pipeline comparison (a 4-node PoW simulation plus the
// ordering+PBFT pipeline, both in-process on virtual clocks), asserts
// the JSONL trace parses line-by-line, and checks every pipeline stage
// each run is expected to emit actually appears with its run label.
func TestTraceDemo(t *testing.T) {
	var trace bytes.Buffer
	tables, err := StageLatency(0.05, &trace)
	if err != nil {
		t.Fatalf("StageLatency: %v", err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2 (pow, ordering)", len(tables))
	}
	for _, tbl := range tables {
		out := tbl.String()
		if !strings.Contains(out, "stage") || !strings.Contains(out, "p95") {
			t.Errorf("table missing stage/p95 columns:\n%s", out)
		}
	}

	// Every JSONL line must parse as a span with a stage and run label.
	seen := make(map[string]map[string]int) // run → stage → count
	sc := bufio.NewScanner(&trace)
	lines := 0
	for sc.Scan() {
		lines++
		var s obs.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %d %q: %v", lines, sc.Text(), err)
		}
		if s.Stage == "" {
			t.Fatalf("trace line %d has empty stage: %q", lines, sc.Text())
		}
		if s.Run != "pow" && s.Run != "ordering" {
			t.Fatalf("trace line %d has run %q, want pow|ordering", lines, s.Run)
		}
		if seen[s.Run] == nil {
			seen[s.Run] = make(map[string]int)
		}
		seen[s.Run][s.Stage]++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan trace: %v", err)
	}
	if lines == 0 {
		t.Fatal("trace is empty")
	}

	wantStages := map[string][]string{
		"pow": {
			obs.StageBlockVerify, obs.StageStateApply, obs.StageStateCommit, obs.StageBlockConnect,
			obs.StageBlockPropose, obs.StagePowSeal, obs.StageForkChoice,
			obs.StageTxInclusion,
		},
		"ordering": {obs.StageOrderingCut, obs.StagePBFTRound},
	}
	for run, stages := range wantStages {
		for _, stage := range stages {
			if seen[run][stage] == 0 {
				t.Errorf("run %q missing stage %q (got %v)", run, stage, seen[run])
			}
		}
	}
	t.Logf("trace: %d spans, pow stages %d, ordering stages %d",
		lines, len(seen["pow"]), len(seen["ordering"]))
}
