package node

// Cluster-level equivalence for optimistic parallel execution: the same
// seeded network must produce bit-identical ledgers whether every peer
// applies blocks serially or speculatively in parallel (with the
// paranoid double-run asserting per-block equality along the way). This
// is the integration companion of internal/exec's property tests; the
// seeded rand below follows the package seed-audit convention in
// determinism_test.go.
//
// The workload is signed exactly once and the same transaction objects
// are replayed into every cluster: ECDSA signatures are randomized and
// the tx ID commits to the signature, so re-signing between runs would
// change TxRoots (and thus block hashes) without any semantic
// difference.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/metrics"
	"dcsledger/internal/types"
)

// execEqWorkload is a fixed multi-sender transfer schedule (fee ties,
// shared hot recipient for cross-lane conflicts) signed once up front.
type execEqWorkload struct {
	alloc  map[cryptoutil.Address]uint64
	rounds [][]*types.Transaction
}

func buildExecEqWorkload(t *testing.T, seed int64) *execEqWorkload {
	t.Helper()
	senders := make([]*cryptoutil.KeyPair, 8)
	w := &execEqWorkload{alloc: make(map[cryptoutil.Address]uint64, len(senders))}
	for i := range senders {
		senders[i] = cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("exec-eq-sender-%d", i)))
		w.alloc[senders[i].Address()] = 100_000
	}
	hot := cryptoutil.KeyFromSeed([]byte("exec-eq-hot")).Address()
	rng := rand.New(rand.NewSource(seed * 31))
	nonces := make([]uint64, len(senders))
	for round := 0; round < 6; round++ {
		var txs []*types.Transaction
		for s, k := range senders {
			to := hot // shared recipient: cross-lane conflicts
			if rng.Intn(2) == 0 {
				to = cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("exec-eq-to-%d-%d", round, s))).Address()
			}
			tx := types.NewTransfer(k.Address(), to, 10, 2, nonces[s])
			nonces[s]++
			if err := tx.Sign(k); err != nil {
				t.Fatalf("Sign: %v", err)
			}
			txs = append(txs, tx)
		}
		w.rounds = append(w.rounds, txs)
	}
	return w
}

// runExecCluster replays the workload through a 6-peer PoW cluster at
// the given execution width and returns every peer's head hash.
func runExecCluster(t *testing.T, w *execEqWorkload, seed int64, workers int, paranoid bool) []string {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		N: 6,
		Engine: func(i int, key *cryptoutil.KeyPair) consensus.Engine {
			return pow.New(pow.Config{
				TargetInterval:    10 * time.Second,
				InitialDifficulty: 256,
				HashRate:          25.6,
			}, rand.New(rand.NewSource(seed+int64(i)+100)))
		},
		ForkChoice:   func() consensus.ForkChoice { return forkchoice.LongestChain{} },
		Alloc:        w.alloc,
		Rewards:      incentive.Schedule{InitialReward: 50},
		Seed:         seed,
		Latency:      50 * time.Millisecond,
		ExecWorkers:  workers,
		ExecParanoid: paranoid,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	for _, txs := range w.rounds {
		for s, tx := range txs {
			if err := c.Nodes[s%len(c.Nodes)].SubmitTx(tx); err != nil {
				t.Fatalf("SubmitTx: %v", err)
			}
		}
		c.Sim.RunFor(30 * time.Second)
	}
	c.Sim.RunFor(2 * time.Minute)
	c.Stop()
	c.Sim.RunFor(time.Minute)

	fp := make([]string, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		fp = append(fp, n.Chain().Head().Hex())
	}
	// The parallel path must actually have run when enabled.
	if workers > 0 {
		var parallel uint64
		for _, n := range c.Nodes {
			m := n.Metrics()
			parallel += m.ExecParallelBlocks
		}
		if parallel == 0 {
			t.Fatal("ExecWorkers > 0 but no block took the parallel path")
		}
	}
	// Its counters are exported, under the exec_* names, only then.
	reg := metrics.NewRegistry()
	c.Nodes[0].RegisterMetrics(reg)
	snap := reg.Snapshot()
	for _, name := range []string{"exec_parallel_blocks_total", "exec_conflicts_total", "exec_replayed_txs_total", "exec_speedup"} {
		if _, ok := snap[name]; ok != (workers > 0) {
			t.Fatalf("%s exported = %v with ExecWorkers = %d", name, ok, workers)
		}
	}
	if workers > 0 && snap["exec_parallel_blocks_total"] != int64(c.Nodes[0].Metrics().ExecParallelBlocks) {
		t.Fatalf("exec_parallel_blocks_total %d diverges from Metrics", snap["exec_parallel_blocks_total"])
	}
	return fp
}

func TestClusterExecParallelMatchesSerial(t *testing.T) {
	const seed = 73
	w := buildExecEqWorkload(t, seed)
	serial := runExecCluster(t, w, seed, 0, false)
	for _, workers := range []int{1, 4} {
		parallel := runExecCluster(t, w, seed, workers, true)
		if len(parallel) != len(serial) {
			t.Fatalf("peer counts differ: %d vs %d", len(parallel), len(serial))
		}
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Fatalf("workers=%d: peer %d head %s != serial head %s",
					workers, i, parallel[i], serial[i])
			}
		}
	}
}
