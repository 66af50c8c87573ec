package node

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/nodestore"
	"dcsledger/internal/seglog"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// BenchmarkConnectBlock times HandleBlock of one block (a coinbase and 8
// signed transfers between funded senders and idle accounts) on a node
// whose state already holds 1 K or 100 K accounts — 1 M as well with
// DCS_STATE_KEYS=1000000, the opt-in internal/mpt's large-state test
// uses — on each state backend (the disk one journaling into a WAL, which
// it requires), and reports the live heap the node is
// left with (heap-MB: everything the benchmark itself built is dropped
// first). ROADMAP item 4 asks for the sizes to cost the same: a block's
// work is what it touches, not what exists. The chain is built and
// sealed before the timer starts; EXPERIMENTS.md records the numbers
// before and after reads went through the trie.
//
// The chain-* cases are the other axis: a durable node that already
// holds 1 K or 20 K blocks connects one more (connectOnChain). They are
// meant to cost the same too, in time and in heap: a block's work is not
// what came before it either.
func BenchmarkConnectBlock(b *testing.B) {
	sizes := []int{1_000, 100_000}
	if env := os.Getenv("DCS_STATE_KEYS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			b.Fatalf("bad DCS_STATE_KEYS %q", env)
		}
		sizes = append(sizes, n)
	}
	for _, accounts := range sizes {
		for _, backend := range []string{"memory", "disk"} {
			b.Run(fmt.Sprintf("accounts-%d/%s", accounts, backend), func(b *testing.B) {
				benchConnectBlock(b, accounts, backend == "disk")
			})
		}
	}
	for _, chain := range []int{1_000, 20_000} {
		b.Run(fmt.Sprintf("chain-%d/durable", chain), func(b *testing.B) { benchConnectOnChain(b, chain) })
	}
}

func benchConnectBlock(b *testing.B, accounts int, disk bool) {
	const txsPerBlock = 8
	miner := cryptoutil.KeyFromSeed([]byte("bench-miner")).Address()
	senders := make([]*cryptoutil.KeyPair, txsPerBlock)
	alloc := make(map[cryptoutil.Address]uint64, accounts)
	for i := range senders {
		senders[i] = cryptoutil.KeyFromSeed([]byte{byte(i), 'b', 's'})
		alloc[senders[i].Address()] = 1 << 40
	}
	idle := make([]cryptoutil.Address, 0, accounts)
	for i := 0; len(alloc) < accounts; i++ {
		var seed [8]byte
		binary.BigEndian.PutUint64(seed[:], uint64(i))
		a := cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("bench-idle"), seed[:]))
		alloc[a] = 1
		idle = append(idle, a)
	}

	genesis := NewGenesis("bench-connect")
	rewards := incentive.Schedule{InitialReward: 50}
	cfg := Config{
		ID:         "bench",
		Key:        cryptoutil.KeyFromSeed([]byte("bench-node")),
		Engine:     liteEngine(1),
		ForkChoice: forkchoice.LongestChain{},
		Genesis:    genesis,
		Alloc:      alloc,
		Rewards:    rewards,
		Clock:      simclock.NewSimulator(),
	}
	if disk {
		ns, err := nodestore.Open(b.TempDir(), nodestore.Options{Sync: nodestore.SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		defer ns.Close()
		// Everything the store was handed, genesis flush and what sweeps
		// copied forward included.
		defer func() { b.ReportMetric(float64(ns.Stats().Bytes)/(1<<20), "store-MB") }()
		ds, _, err := wal.OpenStore(b.TempDir(), wal.StoreOptions{Fsync: seglog.SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		defer ds.Close()
		cfg.Durable, cfg.DiskState = ds, ns
	}
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}

	// Build and seal b.N blocks on a state of the builder's own.
	seal := liteEngine(2)
	st := state.New()
	for a, v := range alloc {
		st.Credit(a, v)
	}
	parent := genesis
	blocks := make([]*types.Block, 0, b.N)
	for i := 0; i < b.N; i++ {
		height := parent.Header.Height + 1
		reward := rewards.RewardAt(height)
		txs := []*types.Transaction{nil}
		var fees uint64
		for j, s := range senders {
			tx := types.NewTransfer(s.Address(), idle[(i*txsPerBlock+j)%len(idle)], 1, 1, uint64(i))
			if err := tx.Sign(s); err != nil {
				b.Fatal(err)
			}
			fees += tx.Fee
			txs = append(txs, tx)
		}
		txs[0] = types.NewCoinbase(miner, reward+fees, height)
		blk := types.NewBlock(parent.Hash(), height, parent.Header.Time+int64(10*time.Second), miner, txs)
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
		st, parent = next.Detach(), blk // the builder keeps one trie, not a layer per block
		blocks = append(blocks, blk)
	}
	alloc, idle, st, cfg = nil, nil, nil, Config{}

	b.ReportAllocs()
	b.ResetTimer()
	for _, blk := range blocks {
		if err := n.HandleBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	blocks = nil
	_, live := heapAfterGC()
	b.ReportMetric(float64(live)/(1<<20), "heap-MB")
	runtime.KeepAlive(n)
}
