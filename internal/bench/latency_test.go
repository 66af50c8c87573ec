package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"dcsledger/internal/obs"
)

// TestTraceDemo is the `make trace-demo` target: it runs the reduced
// -stages pipeline comparison (a 4-node PoW simulation plus the
// ordering+PBFT pipeline, both in-process on virtual clocks), asserts
// the JSONL trace parses line-by-line, that the stages each run emits are
// exactly the set recorded at PR 17 (testdata/trace_stages.golden), and
// that a block's spans carry its hash from proposer to followers.
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
	seen := make(map[string]int) // "run stage" → count
	var spans []obs.Span
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
		seen[s.Run+" "+s.Stage]++
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan trace: %v", err)
	}
	if lines == 0 {
		t.Fatal("trace is empty")
	}

	golden, err := os.ReadFile("testdata/trace_stages.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(seen))
	for runStage := range seen {
		got = append(got, runStage)
	}
	sort.Strings(got)
	if want := strings.Split(strings.TrimSpace(string(golden)), "\n"); !slices.Equal(got, want) {
		t.Errorf("stages seen %q, want %q (testdata/trace_stages.golden)", got, want)
	}

	// Every block-scoped span names its block, and one block is the same
	// block wherever it is seen: what its proposer sealed is what the
	// other three miners verified and connected, at the same height. The
	// proposer itself only seals, proposes and commits it: the block runs
	// once there, in the build pass, and is not verified or connected again.
	type sighting struct{ stage, peer string }
	heightOf := make(map[string]uint64)
	sightings := make(map[string]map[sighting]bool) // block → where it was seen
	for _, s := range spans {
		switch s.Stage {
		case obs.StageBlockVerify, obs.StageStateApply, obs.StageStateCommit, obs.StageBlockConnect, obs.StageBlockPropose, obs.StagePowSeal:
		default:
			if s.Block != "" {
				t.Fatalf("%s span carries block %q", s.Stage, s.Block)
			}
			continue
		}
		if s.Block == "" {
			t.Fatalf("%s span at height %d names no block", s.Stage, s.Height)
		}
		if h, ok := heightOf[s.Block]; ok && h != s.Height {
			t.Fatalf("block %s seen at heights %d and %d", s.Block, h, s.Height)
		}
		heightOf[s.Block] = s.Height
		if sightings[s.Block] == nil {
			sightings[s.Block] = make(map[sighting]bool)
		}
		sightings[s.Block][sighting{s.Stage, s.Peer}] = true
	}
	followed := 0
	for block, at := range sightings {
		var proposer string
		connects := 0
		for sg := range at {
			switch sg.stage {
			case obs.StageBlockPropose:
				proposer = sg.peer
			case obs.StageBlockConnect:
				connects++
			}
		}
		if proposer == "" {
			t.Fatalf("block %s was connected but no block_propose span names it", block)
		}
		for _, stage := range []string{obs.StageStateCommit, obs.StagePowSeal} {
			if !at[sighting{stage, proposer}] {
				t.Fatalf("block %s: its proposer %s has no %s span for it", block, proposer, stage)
			}
		}
		for sg := range at {
			if sg.stage == obs.StagePowSeal && sg.peer != proposer {
				t.Fatalf("block %s, proposed by %s, sealed by %s", block, proposer, sg.peer)
			}
		}
		for _, stage := range []string{obs.StageBlockVerify, obs.StageStateApply, obs.StageBlockConnect} {
			if at[sighting{stage, proposer}] {
				t.Fatalf("block %s: its proposer %s ran it again (%s span)", block, proposer, stage)
			}
		}
		if connects == 3 {
			followed++ // all three followers
		}
	}
	if followed == 0 {
		t.Fatal("no block can be followed from its proposer to every follower by its Block")
	}
	t.Logf("trace: %d spans, %d blocks, %d followed across all 4 nodes", lines, len(sightings), followed)
}
