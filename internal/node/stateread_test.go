package node

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/contract"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/nodestore"
	"dcsledger/internal/seglog"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/vm"
	"dcsledger/internal/wal"
)

// notaryChain is a disk-test chain with a contract in it: the first
// funded account deploys the notary at height 2 and registers one
// document per block from height 3, so the contract's account leaf names
// code and a storage trie that changes with every block.
type notaryChain struct {
	bd       *chainBuilder
	miners   []cryptoutil.Address
	owner    *cryptoutil.KeyPair
	nonce    uint64
	contract cryptoutil.Address
	tip      *types.Block
	blocks   []*types.Block
}

func newNotaryChain(t *testing.T, genesis *types.Block) *notaryChain {
	bd := diskChainBuilder(t, genesis)
	bd.states[genesis.Hash()].SetExecutor(contract.NewExecutor(contract.NewRegistry()))
	_, miners := diskAlloc()
	owner := cryptoutil.KeyFromSeed([]byte{0, 0, 'd'})
	return &notaryChain{bd: bd, miners: miners[1:], owner: owner, tip: genesis,
		contract: vm.ContractAddress(owner.Address(), 0)}
}

func (c *notaryChain) doc(height uint64) string { return fmt.Sprintf("doc-%d", height) }

// grow seals blocks until the chain is height high and returns the new ones.
func (c *notaryChain) grow(height uint64) []*types.Block {
	c.bd.t.Helper()
	from := len(c.blocks)
	for c.tip.Header.Height < height {
		h := c.tip.Header.Height + 1
		var txs []*types.Transaction
		if h >= 2 {
			tx := &types.Transaction{Kind: types.TxInvoke, From: c.owner.Address(), To: c.contract,
				Fee: 1, Nonce: c.nonce, GasLimit: 10_000, Data: contract.EncodeCall("register", c.doc(h))}
			if h == 2 {
				tx.Kind, tx.To, tx.Data = types.TxDeploy, cryptoutil.ZeroAddress, []byte("native:notary")
			}
			if err := tx.Sign(c.owner); err != nil {
				c.bd.t.Fatalf("Sign: %v", err)
			}
			c.nonce++
			txs = append(txs, tx)
		}
		c.tip = c.bd.extendTxs(c.tip, c.miners[int(h)%len(c.miners)], txs...)
		c.blocks = append(c.blocks, c.tip)
	}
	return c.blocks[from:]
}

// check requires n's head to be the chain's tip, with the contract's
// code and every registered document readable through the head state.
func (c *notaryChain) check(t *testing.T, n *Node) {
	t.Helper()
	if n.Chain().Head() != c.tip.Hash() {
		t.Fatalf("head %s@%d, want the chain's tip at %d", n.Chain().Head().Short(), n.Chain().Height(), c.tip.Header.Height)
	}
	st, err := n.HeadState()
	if err != nil {
		t.Fatalf("HeadState: %v", err)
	}
	v := st.Copy()
	if got := string(v.Code(c.contract)); got != "native:notary" {
		t.Fatalf("contract code = %q (%v)", got, v.Err())
	}
	for h := uint64(3); h <= c.tip.Header.Height; h++ {
		owner := v.Storage(c.contract, []byte("doc/"+c.doc(h)))
		if string(owner) != string(c.owner.Address().Bytes()) {
			t.Fatalf("document of height %d: owner %x (%v)", h, owner, v.Err())
		}
	}
	if v.Err() != nil || v.Commit() != c.tip.Header.StateRoot {
		t.Fatalf("head view: err %v, root %s, header %s", v.Err(), v.Commit().Short(), c.tip.Header.StateRoot.Short())
	}
}

func handleAll(t *testing.T, n *Node, blocks []*types.Block) {
	t.Helper()
	for _, b := range blocks {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
		}
	}
}

// hideSegments moves every sealed segment of the node store in dir/state
// out of reach and returns the function that puts them back: reads of
// nodes in them fail meanwhile, as on a disk that stopped answering.
func hideSegments(t *testing.T, dir string) (restore func()) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "state", "ns-*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	segs = segs[:len(segs)-1] // the active one stays
	for _, p := range segs {
		if err := os.Rename(p, p+".hidden"); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		for _, p := range segs {
			if err := os.Rename(p+".hidden", p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStateReadErrorIsNotARejection: while the state store cannot
// produce a node, a block that needs it is refused with state.ErrRead —
// not counted as rejected, not connected on an empty account — reads of
// the head fail loudly, and the same block connects, to the header's
// root, once the store answers again.
func TestStateReadErrorIsNotARejection(t *testing.T) {
	dir := t.TempDir()
	opts := diskOpts{retention: -1, cache: -1, executor: contract.NewExecutor(contract.NewRegistry())}
	n1, ds1, ns1, genesis, err := diskNodeWith(t, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := newNotaryChain(t, genesis)
	handleAll(t, n1, c.grow(8)) // flushed and checkpointed at 8
	ds1.Close()
	ns1.Close()

	// A fresh process: nothing of the state is in memory or in a cache.
	n, _, _, _, err := diskNodeWith(t, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.check(t, n)
	next := c.grow(9)[0]
	restore := hideSegments(t, dir)
	err = n.HandleBlock(next)
	if !errors.Is(err, state.ErrRead) {
		t.Fatalf("HandleBlock over an unreadable store: %v", err)
	}
	if m := n.Metrics(); m.BlocksRejected != 0 || m.BlocksAccepted != 0 || m.StateReadErrors == 0 || n.Tree().Has(next.Hash()) {
		t.Fatalf("rejected %d, accepted %d, read errors %d, block in tree %v", m.BlocksRejected, m.BlocksAccepted, m.StateReadErrors, n.Tree().Has(next.Hash()))
	}
	if _, err := n.Balance(c.miners[3]); !errors.Is(err, state.ErrRead) {
		t.Fatalf("Balance over an unreadable store: %v", err)
	}
	if _, err := n.AccountProof(c.miners[3]); err == nil {
		t.Fatal("AccountProof over an unreadable store succeeded")
	}
	restore()
	if err := n.HandleBlock(next); err != nil {
		t.Fatalf("the same block, store healthy: %v", err)
	}
	c.check(t, n)
	if m := n.Metrics(); m.BlocksRejected != 0 || m.BlocksAccepted != 1 {
		t.Fatalf("rejected %d, accepted %d", m.BlocksRejected, m.BlocksAccepted)
	}
}

// TestCrashMatrixSweepKeepsCheckpointRoots: with a retention window
// shorter than the checkpoint cadence the sweep's window holds no
// checkpointed root at all, and the newest checkpoint still opens after
// it — account trie, the contract's storage trie and its code — because
// the sweep marks what the retained checkpoint files name.
func TestCrashMatrixSweepKeepsCheckpointRoots(t *testing.T) {
	dir := t.TempDir()
	opts := diskOpts{retention: 4, ckptEvery: 16, executor: contract.NewExecutor(contract.NewRegistry())}
	n1, ds1, ns1, genesis, err := diskNodeWith(t, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := newNotaryChain(t, genesis)
	handleAll(t, n1, c.grow(70)) // checkpoints at 16..64, the sweep with the one at 64
	if m := n1.Metrics(); m.DiskPrunes != 1 || m.DiskErrors != 0 || ns1.Stats().Dropped == 0 {
		t.Fatalf("DiskPrunes %d, DiskErrors %d, %d records dropped", m.DiskPrunes, m.DiskErrors, ns1.Stats().Dropped)
	}
	if !trieDropped(t, ns1, c.blocks[31].Header.StateRoot, []cryptoutil.Hash{c.blocks[47].Header.StateRoot, c.blocks[63].Header.StateRoot}) || !ns1.Has(c.blocks[63].Header.StateRoot) {
		t.Fatal("the sweep kept the root of height 32 or dropped the checkpointed root of height 64")
	}
	ds1.Close() // kill: nothing else is flushed
	ns1.Close()

	n2, _, _, _, err := diskNodeWith(t, dir, opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	c.check(t, n2)
	if h := n2.disk.flushedHeight; h != 64 {
		t.Fatalf("recovered from flushed height %d, want the checkpoint at 64", h)
	}
	if m := n2.Metrics(); m.RecoveredBlocks != 70 || m.BlocksRejected != 0 || m.StateReadErrors != 0 {
		t.Fatalf("recovered %d blocks, rejected %d, %d state read errors", m.RecoveredBlocks, m.BlocksRejected, m.StateReadErrors)
	}
	handleAll(t, n2, c.grow(82))
	c.check(t, n2)
}

// TestCrashMatrixSnapshotCheckpointOnDisk: a checkpoint that carries a
// snapshot — any data directory written before checkpoints could name a
// stored root, or by the memory backend — opens on the disk backend: the
// snapshot's state is written to the store whole, storage tries and code
// included, and the next checkpoint is root-only.
func TestCrashMatrixSnapshotCheckpointOnDisk(t *testing.T) {
	dir := t.TempDir()
	ex := contract.NewExecutor(contract.NewRegistry())
	n1, ds1, _, genesis, err := diskNodeWith(t, dir, diskOpts{retention: -1, executor: ex, memory: true})
	if err != nil {
		t.Fatal(err)
	}
	c := newNotaryChain(t, genesis)
	handleAll(t, n1, c.grow(20)) // snapshot checkpoints at 8 and 16
	ds1.Close()

	n2, ds2, ns2, _, err := diskNodeWith(t, dir, diskOpts{retention: -1, executor: ex})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	c.check(t, n2)
	if h := n2.disk.flushedHeight; h != 16 {
		t.Fatalf("flushed height %d, want the snapshot checkpoint's 16", h)
	}
	handleAll(t, n2, c.grow(24)) // checkpoint at 24: root only
	ds2.Close()
	ns2.Close()
	ds3, rec, err := wal.OpenStore(dir, wal.StoreOptions{Fsync: seglog.SyncNever, SegmentSize: diskWALSegment, CheckpointEvery: diskCkptEvery})
	if err != nil {
		t.Fatal(err)
	}
	ds3.Close()
	if ck := rec.Checkpoint; ck == nil || ck.State != nil || ck.Older == nil || ck.Older.State == nil {
		t.Fatalf("want the root-only checkpoint at 24 over the snapshot one at 16, have %+v", ck)
	}
	n3, _, _, _, err := diskNodeWith(t, dir, diskOpts{retention: -1, executor: ex})
	if err != nil {
		t.Fatalf("Recover from the root-only checkpoint: %v", err)
	}
	c.check(t, n3)
}

// heapTestNode returns a disk-backend node over ns, journaling into a WAL
// of its own, whose genesis funds the given number of accounts, 133
// blocks in: blocks that touch accounts all over the trie, past two
// flushes, a detach of the head state and the release of older tries.
// Nothing it built along the way is returned.
func heapTestNode(t *testing.T, ns *nodestore.Store, accounts int) (*Node, cryptoutil.Address) {
	alloc := make(map[cryptoutil.Address]uint64, accounts)
	for i := 0; i < accounts; i++ {
		alloc[cryptoutil.AddressFromHash(cryptoutil.HashUint64("heap-accounts", uint64(i)))] = 1000
	}
	ds, _, err := wal.OpenStore(t.TempDir(), wal.StoreOptions{Fsync: seglog.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	genesis := NewGenesis("heap-accounts")
	n, err := New(Config{
		ID:         "h0",
		Key:        cryptoutil.KeyFromSeed([]byte("heap-node")),
		Engine:     liteEngine(3),
		ForkChoice: forkchoice.LongestChain{},
		Genesis:    genesis,
		Alloc:      alloc,
		Rewards:    incentive.Schedule{InitialReward: 50},
		Clock:      simclock.NewSimulator(),
		Durable:    ds,
		DiskState:  ns,
	})
	if err != nil {
		t.Fatal(err)
	}
	bd := newChainBuilder(t, genesis)
	gst := state.New()
	var miners []cryptoutil.Address
	for a, v := range alloc {
		gst.Credit(a, v)
		if len(miners) < 200 {
			miners = append(miners, a)
		}
	}
	bd.states[genesis.Hash()] = gst
	tip := genesis
	for i := 0; i < 2*wal.DefaultCheckpointEvery+5; i++ {
		tip = bd.extend(tip, miners[i%len(miners)])
		if err := n.HandleBlock(tip); err != nil {
			t.Fatal(err)
		}
		if i%32 == 0 { // the builder, too, keeps one state
			bd.states = map[cryptoutil.Hash]*state.State{tip.Hash(): bd.states[tip.Hash()].Detach()}
		}
	}
	return n, miners[0]
}

// TestHeapIndependentOfAccountCount: a disk-backend node holds nothing
// per account. Its state is a trie in the node store read through the
// store's bounded cache, so twenty times the accounts leave the node's
// live heap — cache at its budget included — where it was. The store's
// own index (hash prefix → file position, one entry per trie node:
// docs/ARCHITECTURE.md "What grows") is measured apart, by opening the
// same directory with no node in front of it, and held to 32 bytes a
// record.
func TestHeapIndependentOfAccountCount(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200 000-account state directory")
	}
	const cache = 4 << 20
	liveHeap := func(accounts int) (node, index uint64, records int) {
		dir := t.TempDir()
		open := func() *nodestore.Store {
			ns, err := nodestore.Open(filepath.Join(dir, "state"), nodestore.Options{Sync: nodestore.SyncNever, CacheBytes: cache})
			if err != nil {
				t.Fatal(err)
			}
			return ns
		}
		_, before := heapAfterGC()
		ns := open()
		_, after := heapAfterGC()
		empty := after - before

		n, miner := heapTestNode(t, ns, accounts)
		// Read every account once: the cache is at its budget on both
		// sides, which is the bound the backend promises.
		if v := n.State().Copy(); v.Len() != accounts || v.Balance(miner) <= 1000 || v.Err() != nil {
			t.Fatalf("%d accounts, miner balance %d, err %v", v.Len(), v.Balance(miner), v.Err())
		}
		if st := ns.Stats(); st.CacheBytes < cache*9/10 {
			t.Fatalf("cache holds %d of %d bytes after reading %d accounts", st.CacheBytes, cache, accounts)
		}
		_, withNode := heapAfterGC()
		total := withNode - before
		runtime.KeepAlive(n)
		n = nil
		ns.Close()

		// The same directory, store only.
		_, before = heapAfterGC()
		ns = open()
		_, after = heapAfterGC()
		index = after - before - empty
		records = ns.Stats().Records
		ns.Close()
		return total - index, index, records
	}
	smallNode, smallIndex, _ := liveHeap(10_000)
	largeNode, largeIndex, records := liveHeap(200_000)
	perRecord := float64(largeIndex) / float64(records)
	t.Logf("live heap of the node over its store: %d KiB at 10 000 accounts, %d KiB at 200 000 (store index apart: %d KiB, %d KiB = %.0f B per account, %.1f B for each of %d records)",
		smallNode>>10, largeNode>>10, smallIndex>>10, largeIndex>>10, float64(largeIndex-smallIndex)/190_000, perRecord, records)
	if float64(largeNode) > 1.3*float64(smallNode) {
		t.Fatalf("the node's live heap grew from %d KiB to %d KiB with the account count: something is kept per account", smallNode>>10, largeNode>>10)
	}
	if perRecord > 32 {
		t.Fatalf("the store's index holds %.1f bytes per record, want at most 32", perRecord)
	}
}
