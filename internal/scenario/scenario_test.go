package scenario

import (
	"strings"
	"testing"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/p2p"
)

// runTwice enforces the determinism hard contract: the same scenario
// and seed must produce bit-identical reports, and every invariant must
// hold. It returns the first run's report for further assertions.
func runTwice(t *testing.T, sc Scenario) *Report {
	t.Helper()
	r1, err := Run(sc)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if f1, f2 := r1.Fingerprint(), r2.Fingerprint(); f1 != f2 {
		t.Fatalf("nondeterministic scenario:\nrun1 %s\n%s\nrun2 %s\n%s", f1, r1, f2, r2)
	}
	if !r1.Passed() {
		t.Fatalf("invariant violations:\n%s", r1)
	}
	return r1
}

func TestPowScenarioDeterministic(t *testing.T) {
	sc := Scenario{
		Name:        "pow-adversarial",
		Family:      FamilyPoW,
		N:           12,
		Miners:      6,
		Seed:        42,
		Duration:    10 * time.Minute,
		Drain:       2 * time.Minute,
		SubmitEvery: 5 * time.Second,
		Steps: []Step{
			{At: 1 * time.Minute, Action: Spam{Node: 7, On: true, Interval: 2 * time.Second, Size: 256}},
			{At: 2 * time.Minute, Action: Selfish{Node: 0, On: true}},
			{At: 3 * time.Minute, Action: Partition{Groups: [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11}}}},
			{At: 5 * time.Minute, Action: Heal{}},
			{At: 6 * time.Minute, Action: Leave{Node: 11}},
			{At: 7 * time.Minute, Action: Selfish{Node: 0, On: false}},
			{At: 7 * time.Minute, Action: Spam{Node: 7, On: false}},
			{At: 8 * time.Minute, Action: Rejoin{Node: 11}},
		},
	}
	r := runTwice(t, sc)
	if r.Height == 0 {
		t.Fatal("no common prefix grew")
	}
	if r.Committed == 0 {
		t.Fatal("no transactions finalized")
	}
	if len(r.StepLog) != len(sc.Steps) {
		t.Fatalf("executed %d of %d steps:\n%s", len(r.StepLog), len(sc.Steps), r)
	}
}

func TestPBFTScenarioDeterministic(t *testing.T) {
	sc := Scenario{
		Name:        "pbft-adversarial",
		Family:      FamilyPBFT,
		N:           7,
		Seed:        7,
		Duration:    5 * time.Minute,
		Drain:       time.Minute,
		Latency:     10 * time.Millisecond,
		SubmitEvery: 2 * time.Second,
		Steps: []Step{
			{At: 30 * time.Second, Action: Equivocate{Node: 0, On: true}},
			{At: 90 * time.Second, Action: Equivocate{Node: 0, On: false}},
			{At: 2 * time.Minute, Action: Partition{Groups: [][]int{{0, 1, 2, 3, 4}, {5, 6}}}},
			{At: 3 * time.Minute, Action: Heal{}},
			{At: 200 * time.Second, Action: Leave{Node: 6}},
			{At: 4 * time.Minute, Action: Rejoin{Node: 6}},
			{At: 100 * time.Second, Action: Spam{Node: 3, On: true, Interval: time.Second, Size: 128}},
			{At: 4 * time.Minute, Action: Spam{Node: 3, On: false}},
		},
	}
	r := runTwice(t, sc)
	if r.Committed == 0 {
		t.Fatal("no operations executed")
	}
	if r.Height == 0 {
		t.Fatal("no sequence progress")
	}
}

func TestRaftScenarioDeterministic(t *testing.T) {
	sc := Scenario{
		Name:        "raft-adversarial",
		Family:      FamilyRaft,
		N:           5,
		Seed:        99,
		Duration:    4 * time.Minute,
		Drain:       time.Minute,
		Latency:     10 * time.Millisecond,
		SubmitEvery: 2 * time.Second,
		Steps: []Step{
			{At: 1 * time.Minute, Action: Partition{Groups: [][]int{{0, 1, 2}, {3, 4}}}},
			{At: 2 * time.Minute, Action: Heal{}},
			{At: 150 * time.Second, Action: Leave{Node: 4}},
			{At: 3 * time.Minute, Action: Rejoin{Node: 4}},
			{At: 30 * time.Second, Action: Spam{Node: 2, On: true, Interval: time.Second, Size: 64}},
			{At: 3 * time.Minute, Action: Spam{Node: 2, On: false}},
		},
	}
	r := runTwice(t, sc)
	if r.Committed == 0 {
		t.Fatal("no entries applied")
	}
}

// TestReplicaFamilyReportsDivergentApply: the honest runs above never
// take the violation branch of the shared apply-time check, so a replica
// that applies a different operation at a sequence number the group
// agreed on is injected under each constructor, and the check must say
// so — about that sequence number and nothing else.
func TestReplicaFamilyReportsDivergentApply(t *testing.T) {
	for family, mk := range map[string]func() *replicaFamily{FamilyPBFT: newPBFTFamily, FamilyRaft: newRaftFamily} {
		t.Run(family, func(t *testing.T) {
			fam := mk()
			honest := fam.newNode
			fam.newNode = func(e *Engine, i int, ids []p2p.NodeID, tr p2p.Transport, apply consensus.ApplyFunc) (consensus.Replica, error) {
				if i == 2 {
					deliver := apply
					apply = func(seq uint64, op []byte) {
						if seq == 3 {
							op = []byte("forged")
						}
						deliver(seq, op)
					}
				}
				return honest(e, i, ids, tr, apply)
			}
			sc := Scenario{Name: "divergent-" + family, Family: family, N: 5, Seed: 3,
				Duration: time.Minute, Drain: 30 * time.Second, Latency: 10 * time.Millisecond, SubmitEvery: 2 * time.Second}
			sc, err := sc.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := run(sc, fam)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Passed() || rep.Height < 3 {
				t.Fatalf("a forged apply at seq 3 went unreported:\n%s", rep)
			}
			for _, v := range rep.Violations {
				if !strings.Contains(v, family+" divergent apply") || !strings.Contains(v, " seq 3 ") {
					t.Fatalf("unexpected violation %q:\n%s", v, rep)
				}
			}
		})
	}
}

func TestScenarioAsymmetricLink(t *testing.T) {
	sc := Scenario{
		Name:        "pow-asymmetric",
		Family:      FamilyPoW,
		N:           6,
		Miners:      3,
		Seed:        5,
		Duration:    5 * time.Minute,
		Drain:       time.Minute,
		SubmitEvery: 10 * time.Second,
		Steps: []Step{
			{At: 1 * time.Minute, Action: BlockLink{From: 0, To: 1}},
			{At: 3 * time.Minute, Action: Heal{}},
		},
	}
	runTwice(t, sc)
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"unknown family", Scenario{Family: "pos", N: 4, Duration: time.Minute}, "unknown family"},
		{"zero nodes", Scenario{Family: FamilyPoW, Duration: time.Minute}, "N must be positive"},
		{"zero duration", Scenario{Family: FamilyPoW, N: 4}, "Duration must be positive"},
		{"durable without datadir", Scenario{Family: FamilyPoW, N: 4, Duration: time.Minute, Durable: true}, "needs DataDir"},
		{"crash without durable", Scenario{Family: FamilyPoW, N: 4, Duration: time.Minute,
			Steps: []Step{{At: time.Second, Action: Crash{Node: 1}}}}, "need Durable"},
		{"step past end", Scenario{Family: FamilyPoW, N: 4, Duration: time.Minute,
			Steps: []Step{{At: 2 * time.Minute, Action: Heal{}}}}, "outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.sc); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestScenarioBadStepNode(t *testing.T) {
	sc := Scenario{
		Family: FamilyPoW, N: 4, Miners: 2, Seed: 1, Duration: time.Minute,
		Steps: []Step{{At: time.Second, Action: Leave{Node: 9}}},
	}
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want out-of-range step failure", err)
	}
}

func TestReportCanonicalRendering(t *testing.T) {
	r := &Report{Scenario: "x", Family: FamilyRaft, N: 3, Seed: 1,
		StepLog: []string{"t=1s heal"}, Submitted: 10, Committed: 9, Height: 9}
	s := r.String()
	for _, want := range []string{"scenario x family=raft n=3 seed=1", "step t=1s heal",
		"invariants PASS", "submitted 10 committed 9 height 9"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
	if r.Fingerprint() != r.Fingerprint() {
		t.Fatal("fingerprint unstable")
	}
	r.Violations = append(r.Violations, "boom")
	if r.Passed() {
		t.Fatal("violated report reports Passed")
	}
	if !strings.Contains(r.String(), "VIOLATION boom") {
		t.Fatal("violation not rendered")
	}
}
