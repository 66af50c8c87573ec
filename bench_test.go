package dcsledger

// Benchmarks, one family per experiment in DESIGN.md's index, plus the
// micro-benchmarks for the consensus-critical primitives. The experiment
// benchmarks execute the corresponding EXPERIMENTS.md runner at a small
// scale per iteration; run `go run ./cmd/dcsbench -e all` for the
// full-scale tables.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dcsledger/internal/bench"
	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/iavl"
	"dcsledger/internal/incentive"
	"dcsledger/internal/merkle"
	"dcsledger/internal/mpt"
	"dcsledger/internal/node"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/vm"
)

// --- micro-benchmarks: the primitives every table rests on ---

func BenchmarkSHA256Header(b *testing.B) {
	hdr := types.BlockHeader{Height: 1, Time: 2, Difficulty: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hdr.Nonce = uint64(i)
		_ = hdr.Hash()
	}
}

func BenchmarkTxSign(b *testing.B) {
	k := cryptoutil.KeyFromSeed([]byte("bench"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := types.NewTransfer(k.Address(), cryptoutil.ZeroAddress, 1, 1, uint64(i))
		if err := tx.Sign(k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerkleRoot1k(b *testing.B) {
	leaves := make([]cryptoutil.Hash, 1024)
	for i := range leaves {
		leaves[i] = cryptoutil.HashUint64("bench", uint64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = merkle.Root(leaves)
	}
}

func BenchmarkMPTInsert(b *testing.B) {
	b.ReportAllocs()
	tr := mpt.New()
	for i := 0; i < b.N; i++ {
		tr = tr.Set([]byte(fmt.Sprintf("key-%d", i)), []byte("value"))
	}
}

func BenchmarkIAVLInsert(b *testing.B) {
	b.ReportAllocs()
	tr := iavl.New()
	for i := 0; i < b.N; i++ {
		tr = tr.Set([]byte(fmt.Sprintf("key-%d", i)), []byte("value"))
	}
}

func BenchmarkVMExecute(b *testing.B) {
	code := vm.MustAssemble(`
		PUSH 0
		SLOAD
		PUSH 1
		ADD
		PUSH 0
		SWAP
		SSTORE
		STOP
	`)
	st := state.New()
	env := &vm.Env{State: st, GasLimit: 1 << 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Execute(code, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStateCommit(b *testing.B) {
	st := state.New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		var a cryptoutil.Address
		rng.Read(a[:])
		st.Credit(a, uint64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = st.Commit()
	}
}

// BenchmarkStateCopy shows the copy-on-write layer cost: Copy is O(1)
// regardless of how much state the parent holds.
func BenchmarkStateCopy(b *testing.B) {
	st := state.New()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10_000; i++ {
		var a cryptoutil.Address
		rng.Read(a[:])
		st.Credit(a, uint64(i)+1)
		st.SetStorage(a, []byte("slot"), []byte("value"))
	}
	var target cryptoutil.Address
	rng.Read(target[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := st.Copy()
		cp.Credit(target, 1)
	}
}

// BenchmarkConnectBlock measures full block validation and connection at
// a node — batched signature verification, state apply on a
// copy-on-write layer, commit, and fork-choice update. Block
// construction and signing happen off the timer; every iteration uses
// freshly signed transactions so verification is actually measured
// (the signature memo would otherwise short-circuit it).
//
// The hot variant sends every transfer to the proposer with interleaved
// senders — worst case for the parallel executor (everything replays).
// The low-conflict variants group each sender's transactions
// contiguously with disjoint recipients, so at exec-workers > 1 the
// speculative lanes all merge; the speedup is bounded by available
// cores (a 1-CPU runner shows ~1x regardless of width).
func BenchmarkConnectBlock(b *testing.B) {
	b.Run("hot-recipient-64tx", func(b *testing.B) {
		benchConnectBlock(b, 64, 8, 0, false)
	})
	for _, workers := range []int{0, 2, 8} {
		workers := workers
		b.Run(fmt.Sprintf("low-conflict-256tx-workers-%d", workers), func(b *testing.B) {
			benchConnectBlock(b, 256, 32, workers, true)
		})
	}
}

func benchConnectBlock(b *testing.B, txsPerBlock, senderCount, execWorkers int, lowConflict bool) {
	const blocksPerIter = 4
	miner := cryptoutil.KeyFromSeed([]byte("bench-connect-miner"))
	senders := make([]*cryptoutil.KeyPair, senderCount)
	alloc := make(map[cryptoutil.Address]uint64, len(senders))
	for i := range senders {
		senders[i] = cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("bench-sender-%d", i)))
		alloc[senders[i].Address()] = 1 << 40
	}
	genesis := node.NewGenesis("bench-connect")
	rewards := incentive.Schedule{InitialReward: 50}
	engine := func(seed int64) consensus.Engine {
		return pow.New(pow.Config{
			TargetInterval:    10 * time.Second,
			InitialDifficulty: pow.MinDifficulty,
			RetargetWindow:    1 << 32,
			HashRate:          1,
		}, rand.New(rand.NewSource(seed)))
	}
	newNode := func() *node.Node {
		n, err := node.New(node.Config{
			ID:             "bench",
			Key:            miner,
			Engine:         engine(1),
			ForkChoice:     forkchoice.LongestChain{},
			Genesis:        genesis,
			Alloc:          alloc,
			Rewards:        rewards,
			Clock:          simclock.NewSimulator(),
			StateRetention: 64,
			ExecWorkers:    execWorkers,
		})
		if err != nil {
			b.Fatal(err)
		}
		return n
	}

	// buildChain seals blocksPerIter transfer-filled blocks on genesis.
	buildChain := func(n *node.Node) []*types.Block {
		seal := engine(2)
		gst, ok := n.StateAt(genesis.Hash())
		if !ok {
			b.Fatal("no genesis state")
		}
		st := gst.Copy()
		nonces := make(map[cryptoutil.Address]uint64, len(senders))
		parent := genesis
		blocks := make([]*types.Block, 0, blocksPerIter)
		for i := 0; i < blocksPerIter; i++ {
			height := parent.Header.Height + 1
			reward := rewards.RewardAt(height)
			var fees uint64
			txs := make([]*types.Transaction, 0, txsPerBlock+1)
			for j := 0; j < txsPerBlock; j++ {
				var (
					s  *cryptoutil.KeyPair
					to cryptoutil.Address
				)
				if lowConflict {
					// Sender-major order: each sender's nonce chain is one
					// contiguous run, recipients are disjoint.
					s = senders[j/(txsPerBlock/len(senders))]
					to = cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("bench-to-%d-%d", i, j))).Address()
				} else {
					s = senders[j%len(senders)]
					to = miner.Address()
				}
				from := s.Address()
				tx := types.NewTransfer(from, to, 1, 1, nonces[from])
				if err := tx.Sign(s); err != nil {
					b.Fatal(err)
				}
				nonces[from]++
				fees += tx.Fee
				txs = append(txs, tx)
			}
			txs = append([]*types.Transaction{types.NewCoinbase(miner.Address(), reward+fees, height)}, txs...)
			blk := types.NewBlock(parent.Hash(), height,
				parent.Header.Time+int64(10*time.Second), miner.Address(), txs)
			next := st.Copy()
			if _, err := next.ApplyBlock(blk, reward); err != nil {
				b.Fatal(err)
			}
			blk.Header.StateRoot = next.Commit()
			if err := seal.Prepare(&blk.Header, parent); err != nil {
				b.Fatal(err)
			}
			if err := seal.Seal(blk, parent); err != nil {
				b.Fatal(err)
			}
			st, parent = next, blk
			blocks = append(blocks, blk)
		}
		return blocks
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := newNode()
		blocks := buildChain(n) // fresh signatures: nothing memoized yet
		b.StartTimer()
		for _, blk := range blocks {
			if err := n.HandleBlock(blk); err != nil {
				b.Fatal(err)
			}
		}
		if n.Chain().Height() != blocksPerIter {
			b.Fatal("chain did not advance")
		}
		if execWorkers > 0 && lowConflict {
			if m := n.Metrics(); m.ExecConflicts > 0 {
				b.Fatalf("low-conflict block replayed: %d conflicts, %d replayed txs",
					m.ExecConflicts, m.ExecReplayedTxs)
			}
		}
	}
}

// --- experiment benchmarks: one per DESIGN.md index entry ---

// benchScale keeps per-iteration experiment runs small; the dcsbench
// CLI runs them at full scale.
const benchScale = 0.05

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner := bench.Experiments()[id]
	if runner == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := runner(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE1Gossip(b *testing.B)     { benchExperiment(b, "E1") }
func BenchmarkE2PoW(b *testing.B)        { benchExperiment(b, "E2") }
func BenchmarkE3ForkChoice(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4Ordering(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5DCS(b *testing.B)        { benchExperiment(b, "E5") }
func BenchmarkE6Proposers(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkE7BitcoinNG(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkE8Sharding(b *testing.B)   { benchExperiment(b, "E8") }
func BenchmarkE9Lightning(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkE10Attack(b *testing.B)    { benchExperiment(b, "E10") }
func BenchmarkE11SPV(b *testing.B)       { benchExperiment(b, "E11") }
func BenchmarkE12OffChain(b *testing.B)  { benchExperiment(b, "E12") }
func BenchmarkE13Bootstrap(b *testing.B) { benchExperiment(b, "E13") }
func BenchmarkE14PBFT(b *testing.B)      { benchExperiment(b, "E14") }
func BenchmarkE15State(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16Mixer(b *testing.B)     { benchExperiment(b, "E16") }
func BenchmarkE17Gossip(b *testing.B)    { benchExperiment(b, "E17") }
func BenchmarkE18Swap(b *testing.B)      { benchExperiment(b, "E18") }

// BenchmarkClusterBlockFlow measures full end-to-end block production
// and validation across a small simulated network per iteration.
func BenchmarkClusterBlockFlow(b *testing.B) {
	alice := NewWallet("alice")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cluster, err := NewPoWNetwork(4, map[Address]uint64{alice.Address(): 1000})
		if err != nil {
			b.Fatal(err)
		}
		cluster.Start()
		cluster.Sim.RunFor(time.Minute)
		cluster.Stop()
		if cluster.Nodes[0].Chain().Height() == 0 {
			b.Fatal("no blocks mined")
		}
	}
}
