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
	"dcsledger/internal/lz"
	"dcsledger/internal/node"
	"dcsledger/internal/seglog"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// BenchmarkWALAppend measures the durability layer's write path for a
// block-sized record under each fsync policy — the cost a node pays per
// connected block — and, in block-payload, what the journal's codec adds
// to it: an 80-transfer block compressed and appended unsynced per
// iteration, with the compress and inflate times and the stored/raw
// ratio reported per block.
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, pol := range []wal.FsyncPolicy{seglog.SyncAlways, seglog.SyncInterval, seglog.SyncNever} {
		b.Run(pol.String(), func(b *testing.B) {
			w, err := wal.Open(b.TempDir(), wal.Options{Fsync: pol})
			if err != nil {
				b.Fatalf("Open: %v", err)
			}
			defer w.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Append(wal.RecBlock, payload); err != nil {
					b.Fatalf("Append: %v", err)
				}
			}
		})
	}
	b.Run("block-payload", func(b *testing.B) {
		raw := benchTransferBlock(b, 80).Encode()
		w, err := wal.Open(b.TempDir(), wal.Options{Fsync: seglog.SyncNever})
		if err != nil {
			b.Fatalf("Open: %v", err)
		}
		defer w.Close()
		var (
			enc               lz.Encoder
			z, back           []byte
			compress, inflate time.Duration
		)
		b.SetBytes(int64(len(raw)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			z = enc.Encode(z[:0], raw)
			t1 := time.Now()
			if back, err = lz.Decode(back, z, len(raw), wal.MaxRecordLen); err != nil || len(back) != len(raw) {
				b.Fatalf("Decode: %d of %d bytes, %v", len(back), len(raw), err)
			}
			compress, inflate = compress+t1.Sub(t0), inflate+time.Since(t1)
			if _, err := w.Append(wal.RecBlock, z); err != nil {
				b.Fatalf("Append: %v", err)
			}
		}
		perBlock := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(b.N) }
		b.ReportMetric(perBlock(compress), "compress-µs/block")
		b.ReportMetric(perBlock(inflate), "inflate-µs/block")
		b.ReportMetric(float64(len(z))/float64(len(raw)), "stored/raw")
	})
}

// benchTransferBlock is a block of n signed transfers between 256
// accounts, senders drawn uniformly: the fleet benchmark's transfer mix.
func benchTransferBlock(b *testing.B, n int) *types.Block {
	b.Helper()
	keys := make([]*cryptoutil.KeyPair, 256)
	for i := range keys {
		keys[i] = cryptoutil.KeyFromSeed([]byte{byte(i), 'w', 'a', 'l'})
	}
	rng := rand.New(rand.NewSource(1))
	nonces := make([]uint64, len(keys))
	txs := make([]*types.Transaction, n)
	for i := range txs {
		s := rng.Intn(len(keys))
		tx := types.NewTransfer(keys[s].Address(), keys[(s+1+rng.Intn(4))%len(keys)].Address(), uint64(1+rng.Intn(100)), 2, nonces[s])
		nonces[s]++
		if err := tx.SignDeterministic(keys[s]); err != nil {
			b.Fatal(err)
		}
		txs[i] = tx
	}
	return types.NewBlock(cryptoutil.Hash{}, 1, 0, keys[0].Address(), txs)
}

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
