// Package scenario is the adversarial scenario harness: a
// discrete-event engine that runs large simulated deployments —
// 1,000+ nodes — from a declarative script of timed steps (churn,
// asymmetric and healing partitions, crash-recovery via WAL failpoints,
// Byzantine actors) across the pow, pbft, and raft consensus families,
// checking dependability invariants at every sweep and emitting a
// DCS-frontier report. Determinism is a hard contract: the same
// scenario and seed produce a bit-identical report run-to-run (see
// docs/SCENARIOS.md).
package scenario

import (
	"fmt"
	"time"
)

// Families the engine can drive.
const (
	FamilyPoW  = "pow"
	FamilyPBFT = "pbft"
	FamilyRaft = "raft"
)

// Action is one scripted intervention. Concrete actions are the structs
// below; the engine dispatches them to the running family at their
// step's virtual time.
type Action interface {
	// describe renders the action for the report's step log.
	describe() string
}

// Partition splits the network into groups of node indices; nodes not
// listed stay in the default group. Cross-group traffic is dropped
// until Heal.
type Partition struct{ Groups [][]int }

func (a Partition) describe() string { return fmt.Sprintf("partition %v", a.Groups) }

// BlockLink drops traffic on the directed link From → To — an
// asymmetric fault — until Heal.
type BlockLink struct{ From, To int }

func (a BlockLink) describe() string { return fmt.Sprintf("block-link %d->%d", a.From, a.To) }

// Heal removes all partitions and link blocks.
type Heal struct{}

func (a Heal) describe() string { return "heal" }

// Leave takes a node off the network (churn); its process keeps its
// state for a later Rejoin.
type Leave struct{ Node int }

func (a Leave) describe() string { return fmt.Sprintf("leave %d", a.Node) }

// Rejoin returns a departed node to the network; it resyncs via the
// family's catch-up path.
type Rejoin struct{ Node int }

func (a Rejoin) describe() string { return fmt.Sprintf("rejoin %d", a.Node) }

// Crash arms a WAL failpoint on a durable node: its next journal append
// fails mid-write in the given mode ("torn", "cut", or "garble") and
// the store latches failed — the node runs on with broken durability
// until a Restart recovers it. PoW-family only (the replicated-log
// families have no per-node WAL).
type Crash struct {
	Node int
	Mode string
}

func (a Crash) describe() string { return fmt.Sprintf("crash %d (%s)", a.Node, a.Mode) }

// Restart crash-recovers a durable node: the old process dies, a fresh
// one reopens the data directory, replays the WAL (re-proving the
// recovered state root), rejoins, and resyncs.
type Restart struct{ Node int }

func (a Restart) describe() string { return fmt.Sprintf("restart %d", a.Node) }

// Selfish toggles selfish mining on a PoW node: produced blocks are
// withheld to build a private lead and released only when the honest
// chain threatens to catch up.
type Selfish struct {
	Node int
	On   bool
}

func (a Selfish) describe() string { return fmt.Sprintf("selfish %d on=%v", a.Node, a.On) }

// Spam toggles a gossip/protocol spammer on a node: junk payloads of
// Size bytes are injected every Interval.
type Spam struct {
	Node     int
	On       bool
	Interval time.Duration
	Size     int
}

func (a Spam) describe() string { return fmt.Sprintf("spam %d on=%v", a.Node, a.On) }

// Equivocate toggles conflicting-proposal equivocation on a PBFT
// replica (effective while it is primary).
type Equivocate struct {
	Node int
	On   bool
}

func (a Equivocate) describe() string { return fmt.Sprintf("equivocate %d on=%v", a.Node, a.On) }

// Step schedules an action at a virtual time offset from the scenario
// start.
type Step struct {
	At     time.Duration
	Action Action
}

// Scenario is a declarative script for one simulated deployment.
type Scenario struct {
	// Name labels the report.
	Name string
	// Family selects the consensus family: FamilyPoW, FamilyPBFT, or
	// FamilyRaft.
	Family string
	// N is the number of nodes (replicas for pbft/raft).
	N int
	// Miners bounds how many PoW nodes mine (0 = all; ignored by
	// pbft/raft).
	Miners int
	// Seed makes the run reproducible; same scenario + seed =
	// bit-identical report.
	Seed int64
	// Duration is the scripted portion of virtual time; Drain is the
	// settle window appended after it (default 1 minute).
	Duration, Drain time.Duration
	// Latency/Jitter/DropRate shape the simulated links.
	Latency, Jitter time.Duration
	DropRate        float64
	// Degree and Fanout shape the PoW gossip overlay (defaults 4/4).
	Degree, Fanout int
	// SubmitEvery is the client workload cadence (0 = no workload).
	SubmitEvery time.Duration
	// CheckEvery is the invariant-sweep cadence (default 5s).
	CheckEvery time.Duration
	// FinalityDepth is the PoW finality parameter K: a block is treated
	// final once it is K deep in the common prefix of every live node
	// (default 6). pbft/raft commits are final immediately.
	FinalityDepth int
	// Durable gives every PoW node a WAL-backed store under DataDir —
	// required for Crash/Restart steps.
	Durable bool
	// DataDir is the base directory for durable stores.
	DataDir string
	// Steps is the script, in any order; the engine sorts by At.
	Steps []Step
}

func (sc *Scenario) withDefaults() (Scenario, error) {
	out := *sc
	switch out.Family {
	case FamilyPoW, FamilyPBFT, FamilyRaft:
	default:
		return out, fmt.Errorf("scenario: unknown family %q", out.Family)
	}
	if out.N <= 0 {
		return out, fmt.Errorf("scenario: N must be positive")
	}
	if out.Duration <= 0 {
		return out, fmt.Errorf("scenario: Duration must be positive")
	}
	if out.Drain <= 0 {
		out.Drain = time.Minute
	}
	if out.Latency <= 0 {
		out.Latency = 50 * time.Millisecond
	}
	if out.CheckEvery <= 0 {
		out.CheckEvery = 5 * time.Second
	}
	if out.FinalityDepth <= 0 {
		out.FinalityDepth = 6
	}
	if out.Durable && out.DataDir == "" {
		return out, fmt.Errorf("scenario: Durable needs DataDir")
	}
	for _, st := range out.Steps {
		if st.At < 0 || st.At > out.Duration {
			return out, fmt.Errorf("scenario: step %q at %v outside [0, %v]",
				st.Action.describe(), st.At, out.Duration)
		}
		if _, ok := st.Action.(Crash); ok && !out.Durable {
			return out, fmt.Errorf("scenario: Crash steps need Durable")
		}
	}
	return out, nil
}
