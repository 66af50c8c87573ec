package bench

import (
	"math/rand"
	"testing"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/node"
	"dcsledger/internal/seglog"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// benchSealedChain seals n coinbase-only blocks on a cheap-PoW engine,
// tracking per-block states exactly like a live miner would.
func benchSealedChain(b *testing.B, genesis *types.Block, n int) []*types.Block {
	b.Helper()
	eng := pow.New(pow.Config{
		TargetInterval:    10 * time.Second,
		InitialDifficulty: pow.MinDifficulty,
		RetargetWindow:    1 << 32,
		HashRate:          1,
	}, rand.New(rand.NewSource(1)))
	rewards := incentive.Schedule{InitialReward: 50}
	miner := cryptoutil.KeyFromSeed([]byte("bench-durability-miner")).Address()
	st := state.New()
	parent := genesis
	blocks := make([]*types.Block, 0, n)
	for i := 0; i < n; i++ {
		height := parent.Header.Height + 1
		reward := rewards.RewardAt(height)
		cb := types.NewCoinbase(miner, reward, height)
		blk := types.NewBlock(parent.Hash(), height, parent.Header.Time+int64(10*time.Second),
			miner, []*types.Transaction{cb})
		st = st.Copy()
		if _, err := st.ApplyBlock(blk, reward); err != nil {
			b.Fatalf("ApplyBlock: %v", err)
		}
		blk.Header.StateRoot = st.Commit()
		if err := eng.Prepare(&blk.Header, parent); err != nil {
			b.Fatalf("Prepare: %v", err)
		}
		if err := eng.Seal(blk, parent); err != nil {
			b.Fatalf("Seal: %v", err)
		}
		blocks = append(blocks, blk)
		parent = blk
	}
	return blocks
}

func benchEngine() consensus.Engine {
	return pow.New(pow.Config{
		TargetInterval:    10 * time.Second,
		InitialDifficulty: pow.MinDifficulty,
		RetargetWindow:    1 << 32,
		HashRate:          1,
	}, rand.New(rand.NewSource(2)))
}

// BenchmarkRecover measures a full crash-recovery cycle — open the data
// directory, repair the WAL tail, load the newest checkpoint, replay
// the journal into a fresh node, and re-verify the head state root —
// over a 128-block ledger.
func BenchmarkRecover(b *testing.B) {
	const blocks = 128
	dir := b.TempDir()
	genesis := node.NewGenesis("bench-durability")
	chain := benchSealedChain(b, genesis, blocks)

	newNode := func(ds *wal.DurableStore) *node.Node {
		n, err := node.New(node.Config{
			ID:         "bench",
			Key:        cryptoutil.KeyFromSeed([]byte("bench-durability")),
			Engine:     benchEngine(),
			ForkChoice: forkchoice.LongestChain{},
			Genesis:    genesis,
			Rewards:    incentive.Schedule{InitialReward: 50},
			Clock:      simclock.NewSimulator(),
			Durable:    ds,
		})
		if err != nil {
			b.Fatalf("node.New: %v", err)
		}
		return n
	}

	// Seed the directory once: journal all blocks with checkpoints on.
	ds, rec, err := wal.OpenStore(dir, wal.StoreOptions{Fsync: seglog.SyncNever, CheckpointEvery: 32})
	if err != nil {
		b.Fatalf("OpenStore: %v", err)
	}
	n := newNode(ds)
	if err := n.Recover(rec); err != nil {
		b.Fatalf("Recover: %v", err)
	}
	for _, blk := range chain {
		if err := n.HandleBlock(blk); err != nil {
			b.Fatalf("HandleBlock: %v", err)
		}
	}
	if err := ds.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, rec, err := wal.OpenStore(dir, wal.StoreOptions{Fsync: seglog.SyncNever, CheckpointEvery: 32})
		if err != nil {
			b.Fatalf("OpenStore: %v", err)
		}
		n := newNode(ds)
		if err := n.Recover(rec); err != nil {
			b.Fatalf("Recover: %v", err)
		}
		if n.Chain().Height() != blocks {
			b.Fatalf("recovered height %d, want %d", n.Chain().Height(), blocks)
		}
		ds.Close()
	}
	b.ReportMetric(float64(blocks), "blocks/recovery")
}
