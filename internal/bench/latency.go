package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/node"
	"dcsledger/internal/obs"
)

// stageRingCapacity sizes the trace rings for the latency runs: large
// enough to retain every span either pipeline emits at full scale, so
// the summary tables aggregate the complete run, not a suffix.
const stageRingCapacity = 1 << 16

// StageLatency is the dcsbench -stages mode: it runs the same
// transaction workload through the two system designs the paper
// contrasts (Section 2.4) — a permissionless 4-miner PoW network and a
// permissioned solo-orderer + PBFT-committer pipeline — with the event
// tracer attached to every stage, and reports one per-stage latency
// table per run. When traceOut is non-nil, the raw spans of both runs
// are appended to it as JSONL (each line carries run="pow" or
// run="ordering"), ready for jq or a notebook.
//
// Reading the tables: CPU-bound stages (block_verify, state_apply,
// pow_seal) are wall-clock; queueing stages (tx_inclusion,
// ordering_cut, pbft_round) are virtual time on the simulated clock —
// the latency the paper's DCS throughput claims are about.
func StageLatency(scale float64, traceOut io.Writer) ([]*Table, error) {
	powTable, powTracer, err := powStageRun(scale)
	if err != nil {
		return nil, err
	}
	ordTable, ordTracer, err := orderingStageRun(scale)
	if err != nil {
		return nil, err
	}
	if traceOut != nil {
		if err := powTracer.WriteJSONL(traceOut); err != nil {
			return nil, fmt.Errorf("bench: write pow trace: %w", err)
		}
		if err := ordTracer.WriteJSONL(traceOut); err != nil {
			return nil, fmt.Errorf("bench: write ordering trace: %w", err)
		}
	}
	return []*Table{powTable, ordTable}, nil
}

// powStageRun drives a 4-miner PoW gossip network under transaction
// load with the tracer attached to every node (and through it, engine and
// fork choice).
func powStageRun(scale float64) (*Table, *obs.Tracer, error) {
	tracer := obs.NewTracer(stageRingCapacity)
	tracer.SetRun("pow")
	wallets, alloc := loadWallets(8, 1_000_000)
	c, err := node.NewCluster(node.ClusterConfig{
		N: 4,
		Engine: func(i int, key *cryptoutil.KeyPair) consensus.Engine {
			return pow.New(pow.Config{
				TargetInterval:    15 * time.Second,
				InitialDifficulty: 64,
				HashRate:          8,
			}, rand.New(rand.NewSource(9100+int64(i))))
		},
		ForkChoice:  func() consensus.ForkChoice { return forkchoice.LongestChain{} },
		Alloc:       alloc,
		Rewards:     incentive.Schedule{InitialReward: 50},
		Seed:        9100,
		Latency:     100 * time.Millisecond,
		MaxBlockTxs: 256,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, n := range c.Nodes {
		n.SetTracer(tracer)
	}
	span := 10 * time.Minute
	txLoad(c, wallets, scaled(300, scale, 60), span, 9101)
	c.Start()
	c.Sim.RunFor(span)
	c.Stop()
	c.Sim.RunFor(time.Minute)

	t := stageTable("pow (4 miners, 15s interval, longest chain)", tracer)
	t.Note("committed %d txs over height %d", committedTxs(c), c.Nodes[0].Chain().Height())
	return t, tracer, nil
}

// orderingStageRun is fabricRun — solo orderer, 4 PBFT committers —
// with the tracer attached to the orderer and every replica.
func orderingStageRun(scale float64) (*Table, *obs.Tracer, error) {
	tracer := obs.NewTracer(stageRingCapacity)
	tracer.SetRun("ordering")
	executed, batches, _, err := fabricRun(9200, scaled(8000, scale, 800), tracer)
	if err != nil {
		return nil, nil, err
	}
	t := stageTable("ordering (solo orderer + 4 PBFT committers)", tracer)
	t.Note("executed %d txs in %d batches", executed, batches)
	return t, tracer, nil
}

// stageTable renders a tracer's per-stage summary as an experiment
// table: one row per pipeline stage, nearest-rank p50/p95.
func stageTable(run string, tracer *obs.Tracer) *Table {
	t := &Table{
		ID:         "STAGES",
		Title:      "Pipeline stage latencies: " + run,
		PaperClaim: "PoW trades latency for openness; ordering + PBFT commits in network round-trips (§2.4)",
		Columns:    []string{"stage", "count", "p50", "p95", "mean", "max"},
	}
	summary := tracer.Summary()
	for _, stage := range tracer.Stages() {
		s := summary[stage]
		t.AddRow(stage,
			fmt.Sprintf("%d", s.Count),
			fmtDur(s.P50), fmtDur(s.P95), fmtDur(s.Mean), fmtDur(s.Max))
	}
	if ev := tracer.Evicted(); ev > 0 {
		t.Note("ring evicted %d spans; counts reflect the retained window", ev)
	}
	return t
}
