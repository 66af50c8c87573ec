package node

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/metrics"
	"dcsledger/internal/obs"
	"dcsledger/internal/seglog"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// fatChain seals successive blocks of a coinbase that carries a payload,
// so a body weighs what a block of transfers does without the
// signatures, and of whatever transactions next is given. Unlike
// chainBuilder it keeps one state, the
// tip's: it can run for tens of thousands of blocks, and nothing of a
// block it has handed out stays reachable from it.
type fatChain struct {
	tb      testing.TB
	eng     consensus.Engine
	rewards incentive.Schedule
	st      *state.State
	tip     *types.Block
	miner   cryptoutil.Address
	payload int
}

func newFatChain(tb testing.TB, genesis *types.Block, alloc map[cryptoutil.Address]uint64, payload int) *fatChain {
	st := state.New()
	for a, v := range alloc {
		st.Credit(a, v)
	}
	return &fatChain{
		tb:      tb,
		eng:     liteEngine(1),
		rewards: incentive.Schedule{InitialReward: 50},
		st:      st,
		tip:     genesis,
		miner:   cryptoutil.KeyFromSeed([]byte("fat-miner")).Address(),
		payload: payload,
	}
}

func (c *fatChain) next(txs ...*types.Transaction) *types.Block {
	c.tb.Helper()
	height := c.tip.Header.Height + 1
	reward := c.rewards.RewardAt(height)
	fees := uint64(0)
	for _, tx := range txs {
		fees += tx.Fee
	}
	cb := types.NewCoinbase(c.miner, reward+fees, height)
	cb.Data = bytes.Repeat([]byte{byte(height)}, c.payload)
	b := types.NewBlock(c.tip.Hash(), height, c.tip.Header.Time+int64(10*time.Second), c.miner, append([]*types.Transaction{cb}, txs...))
	st := c.st.Copy()
	if _, err := st.ApplyBlock(b, reward); err != nil {
		c.tb.Fatalf("fatChain ApplyBlock: %v", err)
	}
	b.Header.StateRoot = st.Commit()
	if err := c.eng.Prepare(&b.Header, c.tip); err != nil {
		c.tb.Fatalf("Prepare: %v", err)
	}
	if err := c.eng.Seal(b, c.tip); err != nil {
		c.tb.Fatalf("Seal: %v", err)
	}
	if height%64 == 0 {
		st = st.Detach() // or the state drags a layer per block behind it
	}
	c.st, c.tip = st, b
	return b
}

// fatNode is a durable node over dir for fatChain blocks, recovered from
// whatever dir holds, retaining the post-states of retention blocks
// below its head (0 = DefaultStateRetention).
func fatNode(tb testing.TB, dir string, alloc map[cryptoutil.Address]uint64, retention int) (*Node, *wal.DurableStore, *types.Block) {
	tb.Helper()
	ds, rec, err := wal.OpenStore(dir, wal.StoreOptions{Fsync: seglog.SyncNever})
	if err != nil {
		tb.Fatalf("OpenStore: %v", err)
	}
	genesis := NewGenesis("fat-chain")
	n, err := New(Config{
		ID:             "fat",
		Key:            cryptoutil.KeyFromSeed([]byte("fat-node")),
		Engine:         liteEngine(2),
		ForkChoice:     forkchoice.LongestChain{},
		Genesis:        genesis,
		Alloc:          alloc,
		Rewards:        incentive.Schedule{InitialReward: 50},
		Clock:          simclock.NewSimulator(),
		Durable:        ds,
		StateRetention: retention,
	})
	if err == nil {
		err = n.Recover(rec)
	}
	if err != nil {
		ds.Close()
		tb.Fatalf("node over %s: %v", dir, err)
	}
	return n, ds, genesis
}

// heapAfterGC returns HeapInuse, and HeapAlloc: the live bytes alone,
// without what the spans holding them waste, which varies from run to
// run by more than the effects measured here.
func heapAfterGC() (inuse, live uint64) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse, m.HeapAlloc
}

// TestDeepReorgAndRebuildFromJournal: a reorg and a state rebuild that
// both reach far below the body window succeed from the journal, and the
// roots are the builder's serial ones.
func TestDeepReorgAndRebuildFromJournal(t *testing.T) {
	ds, rec, err := wal.OpenStore(t.TempDir(), wal.StoreOptions{Fsync: seglog.SyncNever, SegmentSize: 4 << 10, CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	genesis := NewGenesis("durability-test")
	n, err := New(Config{
		ID:             "d0",
		Key:            cryptoutil.KeyFromSeed([]byte("durability-node")),
		Engine:         liteEngine(2),
		ForkChoice:     forkchoice.LongestChain{},
		Genesis:        genesis,
		Rewards:        incentive.Schedule{InitialReward: 50},
		Clock:          simclock.NewSimulator(),
		Durable:        ds,
		StateRetention: 16,
	})
	if err == nil {
		err = n.Recover(rec)
	}
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	n.RegisterMetrics(reg)
	tracer := obs.NewTracer(1 << 12)
	n.SetTracer(tracer)
	bd := newChainBuilder(t, genesis)
	minerA := cryptoutil.KeyFromSeed([]byte("deep-a")).Address()
	minerB := cryptoutil.KeyFromSeed([]byte("deep-b")).Address()
	const forkAt = 10
	main := bd.chain(genesis, forkAt+3*trieRetention, minerA)
	for _, b := range main {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
		}
	}
	if got := n.Tree().BodiesResident(); got > trieRetention+2 {
		t.Fatalf("%d bodies resident on a %d-block chain, window is %d", got, len(main), trieRetention)
	}
	if m := n.Metrics(); m.BodyReads != 0 {
		t.Fatalf("%d read-backs while extending a linear chain", m.BodyReads)
	}

	// A pruned state below the window: replayed from journaled bodies.
	old := main[forkAt+2]
	st, ok := n.StateAt(old.Hash())
	if !ok {
		t.Fatal("no state for a block below the body window")
	}
	if root := st.Commit(); root != bd.states[old.Hash()].Commit() || root != old.Header.StateRoot {
		t.Fatalf("rebuilt root %s, serial %s", root.Short(), old.Header.StateRoot.Short())
	}
	reads := n.Metrics().BodyReads
	if reads == 0 {
		t.Fatal("the rebuild read nothing back")
	}

	// A heavier branch from height forkAt: the reorg takes 3*trieRetention
	// blocks off the main chain, nearly all of them evicted.
	side := bd.chain(main[forkAt-1], len(main)-forkAt+1, minerB)
	for _, b := range side {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock side h=%d: %v", b.Header.Height, err)
		}
		if got := n.Tree().BodiesResident(); got > 2*(trieRetention+1)+1 {
			t.Fatalf("%d bodies resident while the side branch grows, window is %d", got, trieRetention)
		}
	}
	tip := side[len(side)-1]
	if n.Chain().Head() != tip.Hash() {
		t.Fatalf("head %s, want the side branch's tip", n.Chain().Head().Short())
	}
	m := n.Metrics()
	if m.Reorgs != 1 || m.BodyReads <= reads || m.BodyReadErrors != 0 {
		t.Fatalf("reorgs %d, read-backs %d (before the reorg %d), errors %d", m.Reorgs, m.BodyReads, reads, m.BodyReadErrors)
	}
	if root := n.State().Commit(); root != bd.states[tip.Hash()].Commit() {
		t.Fatalf("head root %s, serial %s", root.Short(), bd.states[tip.Hash()].Commit().Short())
	}
	// First asked after the reorg, the index is the new main chain's,
	// built from bodies nearly all read back from the journal.
	if _, _, ok, err := n.Chain().FindTx(main[forkAt+1].Txs[0].ID()); ok || err != nil {
		t.Fatalf("transaction of a reorged-out block still indexed (err %v)", err)
	}
	if bh, i, ok, err := n.Chain().FindTx(side[0].Txs[0].ID()); !ok || bh != side[0].Hash() || i != 0 || err != nil {
		t.Fatalf("transaction of the new main chain not indexed (err %v)", err)
	}
	for _, b := range slices.Concat(main, side) {
		got, err := n.Tree().Block(b.Hash())
		if err != nil || !bytes.Equal(got.Encode(), b.Encode()) {
			t.Fatalf("block h=%d does not come back as it went in: %v", b.Header.Height, err)
		}
	}

	// The read-backs are visible: gauges on /metrics, spans in the trace.
	snap, m := reg.Snapshot(), n.Metrics()
	if snap["node_block_body_reads_total"] != int64(m.BodyReads) || snap["node_block_body_read_errors_total"] != 0 {
		t.Fatalf("read-back counters %d/%d, Metrics says %d/0",
			snap["node_block_body_reads_total"], snap["node_block_body_read_errors_total"], m.BodyReads)
	}
	// Two branches reach into the window of heights, and genesis.
	if got := snap["node_block_bodies_resident"]; got < 1 || got > 2*(trieRetention+1)+1 {
		t.Fatalf("node_block_bodies_resident = %d, window is %d", got, trieRetention)
	}
	if got := snap["node_block_tree_size"]; got != int64(len(main)+len(side)+1) {
		t.Fatalf("node_block_tree_size = %d, want every header: %d", got, len(main)+len(side)+1)
	}
	if tracer.Summary()[obs.StageBodyRead].Count == 0 {
		t.Fatal("no body_read span recorded")
	}
	// A body read back and a block record journaled name their block. Every
	// head switch here is to a block as it connects, journaled in its
	// record: no append is a head switch alone, which would name none.
	names := map[string]bool{}
	for _, b := range slices.Concat(main, side) {
		names[b.Hash().Short()] = true
	}
	var blockAppends, headAppends int
	for _, s := range tracer.Snapshot() {
		switch {
		case s.Stage == obs.StageBodyRead && !names[s.Block]:
			t.Fatalf("body_read span at height %d names block %q", s.Height, s.Block)
		case s.Stage == obs.StageWALAppend && s.Block == "":
			headAppends++
		case s.Stage == obs.StageWALAppend && names[s.Block]:
			blockAppends++
		}
	}
	if blockAppends != len(main)+len(side) || headAppends != 0 {
		t.Fatalf("wal_append spans: %d naming a block, %d naming none; want %d and none", blockAppends, headAppends, len(main)+len(side))
	}
}

// TestCrashMatrixBodies arms cut, torn and garble at every append of a
// scripted run (a chain longer than the body window, with a fork). In
// the crashed process the blocks the latched store refused stay in
// memory; after the restart every block the tree names is readable: a
// header never outlives its body.
func TestCrashMatrixBodies(t *testing.T) {
	opts := wal.StoreOptions{Fsync: seglog.SyncNever, SegmentSize: 4 << 10, CheckpointEvery: 8}
	script := func(bd *chainBuilder, genesis *types.Block) []*types.Block {
		a := cryptoutil.KeyFromSeed([]byte("body-a")).Address()
		b := cryptoutil.KeyFromSeed([]byte("body-b")).Address()
		// 44 blocks, five windows and more, and a fork of three from
		// height 20 that arrives with the head at 30: its base block is
		// below the window by then.
		main := bd.chain(genesis, 44, a)
		fork := bd.chain(main[19], 3, b)
		return append(append(main[:30:30], fork...), main[30:]...)
	}
	readable := func(t *testing.T, n *Node, blocks []*types.Block) (named int) {
		t.Helper()
		for _, b := range blocks {
			if !n.Tree().Has(b.Hash()) {
				continue
			}
			named++
			got, err := n.Tree().Block(b.Hash())
			if err != nil {
				t.Fatalf("tree names block h=%d but cannot produce it: %v", b.Header.Height, err)
			}
			if !bytes.Equal(got.Encode(), b.Encode()) {
				t.Fatalf("block h=%d came back different", b.Header.Height)
			}
		}
		if errs := n.Metrics().BodyReadErrors; errs != 0 {
			t.Fatalf("%d read-back errors", errs)
		}
		return named
	}

	// A dry run counts the appends to arm the failpoint at.
	n0, ds0, _, genesis := durableNodeOpts(t, t.TempDir(), opts)
	blocks := script(newChainBuilder(t, genesis), genesis)
	for _, b := range blocks {
		if err := n0.HandleBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	appends := ds0.Stats().WAL.Appends
	if readable(t, n0, blocks) != len(blocks) || n0.Metrics().BodyReads == 0 {
		t.Fatal("dry run: not every block named, or nothing read back")
	}

	for _, mode := range []seglog.FailMode{seglog.FailCut, seglog.FailTorn, seglog.FailGarble} {
		t.Run(mode.String(), func(t *testing.T) {
			for k := uint64(1); k <= appends; k++ {
				dir := t.TempDir()
				n1, ds1, _, _ := durableNodeOpts(t, dir, opts)
				ds1.SetFailpoint(mode, k)
				for _, b := range blocks {
					if err := n1.HandleBlock(b); err != nil {
						t.Fatalf("append %d: HandleBlock h=%d: %v", k, b.Header.Height, err)
					}
				}
				if ds1.Failed() == nil {
					t.Fatalf("append %d: failpoint never fired", k)
				}
				if readable(t, n1, blocks) != len(blocks) {
					t.Fatalf("append %d: the crashed process lost blocks it had connected", k)
				}
				ds1.Close()

				n2, ds2, _, _ := durableNodeOpts(t, dir, opts)
				readable(t, n2, blocks)
				for h := uint64(0); h <= n2.Chain().Height(); h++ {
					bh, _ := n2.Chain().AtHeight(h)
					if _, err := n2.Tree().Block(bh); err != nil {
						t.Fatalf("append %d: main-chain height %d unreadable after restart: %v", k, h, err)
					}
				}
				ds2.Close()
			}
		})
	}
}

// TestReadBackFromUnsyncedActiveSegment: under -fsync interval a block
// is written but not yet fsynced when its body leaves the window, and
// its segment is the active one. It reads back all the same.
func TestReadBackFromUnsyncedActiveSegment(t *testing.T) {
	frozen := time.Unix(1_700_000_000, 0)
	n, ds, _, genesis := durableNodeOpts(t, t.TempDir(), wal.StoreOptions{
		Fsync: seglog.SyncInterval,
		Clock: func() time.Time { return frozen }, // the interval never elapses
	})
	bd := newChainBuilder(t, genesis)
	blocks := bd.chain(genesis, trieRetention+8, cryptoutil.KeyFromSeed([]byte("unsynced")).Address())
	for _, b := range blocks {
		if err := n.HandleBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoints sync what they cover: look above the last one.
	b := blocks[len(blocks)-trieRetention-2]
	if st := ds.Stats().WAL; st.Rotations != 0 {
		t.Fatalf("%d rotations: the block is not in the active segment", st.Rotations)
	}
	got, err := n.Tree().Block(b.Hash())
	if err != nil || !bytes.Equal(got.Encode(), b.Encode()) {
		t.Fatalf("read-back from the active segment: %v", err)
	}
	if n.Metrics().BodyReads == 0 {
		t.Fatal("the block was still resident: nothing was read back")
	}
}

// modestAlloc funds the 10 000 accounts of a modest deployment: the
// state the heap tests measure a chain's and a block's cost beside.
func modestAlloc() map[cryptoutil.Address]uint64 {
	alloc := make(map[cryptoutil.Address]uint64)
	for i := uint64(0); i < 10_000; i++ {
		alloc[cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("heap-test"), binary.BigEndian.AppendUint64(nil, i)))] = 1
	}
	return alloc
}

// TestRecoveryHeapIndependentOfChainLength: what a restart keeps in
// memory is the state, the body window and, per block, a header and its
// tree links, nothing per transaction. With the state of a modest
// deployment (10 000 funded accounts) a data directory ten times as long
// costs well under 1.5 times the heap.
func TestRecoveryHeapIndependentOfChainLength(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 5000-block data directory")
	}
	const payload = 2 << 10 // a block of eight transfers is about this large
	alloc := modestAlloc()
	heapAfterRecover := func(blocks int) (inuse, live uint64) {
		dir := t.TempDir()
		n, ds, genesis := fatNode(t, dir, alloc, 0)
		chain := newFatChain(t, genesis, alloc, payload)
		for i := 0; i < blocks; i++ {
			if err := n.HandleBlock(chain.next()); err != nil {
				t.Fatal(err)
			}
		}
		head := n.Chain().Head()
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		n, chain = nil, nil

		n, ds, _ = fatNode(t, dir, alloc, 0)
		defer ds.Close()
		inuse, live = heapAfterGC()
		if n.Chain().Head() != head || n.Chain().Height() != uint64(blocks) {
			t.Fatalf("recovered %s@%d, want %s@%d", n.Chain().Head().Short(), n.Chain().Height(), head.Short(), blocks)
		}
		if got := n.Tree().BodiesResident(); got > trieRetention+2 {
			t.Fatalf("%d bodies resident after recovering %d blocks", got, blocks)
		}
		return inuse, live
	}
	shortInuse, shortLive := heapAfterRecover(500)
	longInuse, longLive := heapAfterRecover(5000)
	// One transaction a block: a further block is a further transaction.
	perBlock := (float64(longLive) - float64(shortLive)) / 4500
	t.Logf("after Recover: HeapInuse %d KiB at 500 blocks, %d KiB at 5000; live heap %d KiB, %d KiB: %.0f B per further block and transaction (a body is %d B)",
		shortInuse>>10, longInuse>>10, shortLive>>10, longLive>>10, perBlock, payload)
	if perBlock > 700 {
		t.Fatalf("each further block costs %.0f B of live heap after recovery, over the 700 B a header and its tree links may: something of the body or its transactions is being kept", perBlock)
	}
	if longInuse > shortInuse*3/2 {
		t.Fatalf("HeapInuse after recovering 5000 blocks is %d KiB, over 1.5x the %d KiB of 500 blocks", longInuse>>10, shortInuse>>10)
	}
}

// TestHeapIndependentOfTxsPerBlock: a running durable node keeps nothing
// per transaction past its windows. Two nodes over the same 10 000
// funded accounts connect the same number of blocks, far more than any
// window holds, one at 8 transfers a block and one at 64; the same eight
// senders and recipients are touched in every block of either, so the
// retained states weigh the same and the body window is the one thing
// that may differ. Eight times the transactions cost under 1.15 times
// the live heap.
func TestHeapIndependentOfTxsPerBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("signs and connects 144 000 transfers")
	}
	const (
		blocks  = 2000
		senders = 8
	)
	alloc := modestAlloc()
	keys := make([]*cryptoutil.KeyPair, senders)
	for i := range keys {
		keys[i] = cryptoutil.KeyFromSeed([]byte{'s', byte(i)})
		alloc[keys[i].Address()] = 1 << 40
	}
	liveAfter := func(perBlock int) uint64 {
		n, ds, genesis := fatNode(t, t.TempDir(), alloc, 0)
		defer ds.Close()
		chain := newFatChain(t, genesis, alloc, 0)
		for i := 0; i < blocks; i++ {
			txs := make([]*types.Transaction, perBlock)
			for j := range txs {
				from := keys[j%senders]
				tx := &types.Transaction{
					Kind: types.TxTransfer, From: from.Address(), To: keys[(j+1)%senders].Address(),
					Value: 1, Fee: 1, Nonce: uint64(i*perBlock/senders + j/senders),
				}
				if err := tx.Sign(from); err != nil {
					t.Fatal(err)
				}
				txs[j] = tx
			}
			if err := n.HandleBlock(chain.next(txs...)); err != nil {
				t.Fatalf("HandleBlock h=%d: %v", i+1, err)
			}
		}
		chain = nil
		_, live := heapAfterGC()
		if n.Chain().Height() != blocks || n.Tree().BodiesResident() > trieRetention+2 {
			t.Fatalf("height %d, %d bodies resident after %d blocks", n.Chain().Height(), n.Tree().BodiesResident(), blocks)
		}
		if got := n.Chain().TxIndexEntries(); got != 0 {
			t.Fatalf("%d transaction index entries on a node nothing looked a transaction up in", got)
		}
		return live
	}
	few, many := liveAfter(8), liveAfter(64)
	perTx := (float64(many) - float64(few)) / (blocks * (64 - 8))
	t.Logf("live heap after %d blocks: %d KiB at 8 transfers a block (%.0f B a block), %d KiB at 64 (%.0f B a block): %.1f B per further transaction",
		blocks, few>>10, float64(few)/blocks, many>>10, float64(many)/blocks, perTx)
	if float64(many) > 1.15*float64(few) {
		t.Fatalf("live heap %d KiB at 64 transfers a block, over 1.15x the %d KiB at 8: %.1f B is kept per transaction", many>>10, few>>10, perTx)
	}
}

// TestRetainedStateHeapPerAccountWritten: what a retained post-state below
// the trie window costs, per account its block wrote. Two durable nodes
// over the same 10 000 funded accounts connect the same 321 blocks of 32
// transfers — the same 32 senders and 32 recipients in every block, 65
// accounts written with the miner; each node decodes its own copy — one
// retaining 128 states below its head, one trieRetention. A node detaches
// its head state one block past its window and every half window after,
// so at 321 the oldest retained state of each is a detached one, a trie
// and no layer: the first holds 118 cold layers (the written states from
// 194 to 312, less the detached 257), the second 3 (310–312, under the
// hot 313); both hold the same 9 hot states, tries and maps, and the same
// body window. The first holds 115 cold layers, 7,475 written accounts,
// 120 retained states and one trie version (a detached state's) more.
//
// A cold account is a 40-byte entry. A layer's own structures — the
// state, its writes, the entries' slice, its memo, its retained-state
// entry — are about 400 B, 6 B an account at 65 a block; the extra trie
// version is the paths to the 65 leaves, about 60 kB, 8 B an account.
// That is 54 B; the bound, 72 B, leaves room for the allocator's size
// classes. Kept in maps, the same accounts measure 164 B each: a Go map
// of 65 such entries is 147 B an entry, its table grown to 128 slots.
func TestRetainedStateHeapPerAccountWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("signs 10 272 transfers and connects them on two nodes")
	}
	const (
		blocks  = 321 // both nodes' oldest retained state is a detached one
		senders = 32
		written = 2*senders + 1
		cold    = 118 - 3
	)
	alloc := modestAlloc()
	keys := make([]*cryptoutil.KeyPair, senders)
	for i := range keys {
		keys[i] = cryptoutil.KeyFromSeed([]byte{'r', byte(i)})
		alloc[keys[i].Address()] = 1 << 40
	}
	recipient := func(i int) cryptoutil.Address {
		return cryptoutil.AddressFromHash(cryptoutil.HashUint64("retained-heap", uint64(i)))
	}
	wide, wds, genesis := fatNode(t, t.TempDir(), alloc, 128)
	defer wds.Close()
	narrow, nds, _ := fatNode(t, t.TempDir(), alloc, trieRetention)
	defer nds.Close()
	chain := newFatChain(t, genesis, alloc, 0)
	for h := 0; h < blocks; h++ {
		txs := make([]*types.Transaction, senders)
		for j, from := range keys {
			tx := &types.Transaction{Kind: types.TxTransfer, From: from.Address(), To: recipient(j), Value: 1, Fee: 1, Nonce: uint64(h)}
			if err := tx.Sign(from); err != nil {
				t.Fatal(err)
			}
			txs[j] = tx
		}
		b := chain.next(txs...)
		copied, err := types.DecodeBlock(b.Encode())
		if err == nil {
			err = wide.HandleBlock(b)
		}
		if err == nil {
			err = narrow.HandleBlock(copied)
		}
		if err != nil {
			t.Fatalf("h=%d: %v", h+1, err)
		}
	}
	for n, retained := range map[*Node]int{wide: 129, narrow: trieRetention + 1} {
		oldest, _ := n.Chain().AtHeight(blocks - uint64(retained) + 1)
		if _, d := n.states[oldest].Under(); len(n.states) != retained || d != 1 {
			t.Fatalf("%d states retained, the oldest reads through %d layers: want %d and a detached one", len(n.states), d, retained)
		}
	}
	_, both := heapAfterGC()
	runtime.KeepAlive(wide)
	_, narrowOnly := heapAfterGC()
	runtime.KeepAlive(narrow)
	_, none := heapAfterGC()
	wideCost, narrowCost := float64(both)-float64(narrowOnly), float64(narrowOnly)-float64(none)
	perAccount := (wideCost - narrowCost) / (cold * written)
	t.Logf("live heap of a node retaining 129 states %.0f KiB, %d states %.0f KiB: %.1f B per account written by a cold state",
		wideCost/1024, trieRetention+1, narrowCost/1024, perAccount)
	if perAccount > 72 {
		t.Fatalf("a retained state below the trie window costs %.1f B per account its block wrote, over 72: its writes are not compacted", perAccount)
	}
}

// connectOnChain is the chain-length axis of BenchmarkConnectBlock: a
// durable node that already holds chain blocks connects count more, and
// the time and heap of those are what a block costs at that length.
func connectOnChain(tb testing.TB, chain, count int) (perBlock time.Duration, heap uint64, resident int) {
	n, ds, genesis := fatNode(tb, tb.TempDir(), nil, 0)
	defer ds.Close()
	fc := newFatChain(tb, genesis, nil, 2<<10)
	for i := 0; i < chain; i++ {
		if err := n.HandleBlock(fc.next()); err != nil {
			tb.Fatal(err)
		}
	}
	blocks := make([]*types.Block, count)
	for i := range blocks {
		blocks[i] = fc.next()
	}
	if b, ok := tb.(*testing.B); ok {
		b.ResetTimer()
	}
	start := time.Now()
	for _, blk := range blocks {
		if err := n.HandleBlock(blk); err != nil {
			tb.Fatal(err)
		}
	}
	perBlock = time.Since(start) / time.Duration(count)
	if b, ok := tb.(*testing.B); ok {
		b.StopTimer()
	}
	blocks, fc = nil, nil
	heap, _ = heapAfterGC()
	if n.Chain().Height() != uint64(chain+count) {
		tb.Fatalf("height %d after %d+%d blocks", n.Chain().Height(), chain, count)
	}
	return perBlock, heap, n.Tree().BodiesResident()
}

// TestResidentBodiesBounded is the short variant of the chain-length
// benchmark that runs with the tests: however long the chain, a durable
// node holds the bodies of the window and no more.
func TestResidentBodiesBounded(t *testing.T) {
	for _, chain := range []int{100, 400} {
		if _, _, resident := connectOnChain(t, chain, 50); resident > trieRetention+2 {
			t.Fatalf("%d bodies resident on a chain of %d blocks, window is %d", resident, chain+50, trieRetention)
		}
	}
}

func benchConnectOnChain(b *testing.B, chain int) {
	perBlock, heap, _ := connectOnChain(b, chain, b.N)
	b.ReportMetric(float64(perBlock.Nanoseconds()), "ns/block")
	b.ReportMetric(float64(heap)/(1<<20), "heap-MB")
	b.ReportMetric(float64(heap)/float64(chain+b.N), "heap-B/block")
}
