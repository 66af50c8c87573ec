package node

import (
	"bytes"
	"cmp"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/mpt"
	"dcsledger/internal/nodestore"
	"dcsledger/internal/obs"
	"dcsledger/internal/seglog"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// diskCkptEvery is the checkpoint (and so the trie flush) cadence of the
// disk-state tests.
const diskCkptEvery = 8

// diskWALSegment is the WAL segment size of the disk-state tests: about
// eight of their journaled blocks a segment, so a checkpoint covers whole
// segments that pruning can drop.
const diskWALSegment = 2 << 10

// diskAlloc funds enough accounts that the account trie has a few
// hundred nodes: a full write of it and an incremental flush differ by
// two orders of magnitude.
func diskAlloc() (map[cryptoutil.Address]uint64, []cryptoutil.Address) {
	alloc := make(map[cryptoutil.Address]uint64)
	var addrs []cryptoutil.Address
	for i := 0; i < 256; i++ {
		a := cryptoutil.KeyFromSeed([]byte{byte(i), byte(i >> 8), 'd'}).Address()
		alloc[a] = 1000
		addrs = append(addrs, a)
	}
	return alloc, addrs
}

// diskOpts varies what diskNodeWith opens; the zero value is diskNode's.
type diskOpts struct {
	retention int
	ckptEvery uint64 // 0 = diskCkptEvery
	executor  state.Executor
	cache     int64  // node-store cache budget (0 = default, negative = none)
	segment   int64  // node-store segment size (0 = 256 bytes)
	memory    bool   // no node store: the memory backend over the same WAL
	genesis   string // the genesis tag ("" = "diskstate-test")
}

// TestDiskStateRequiresDurable: the disk backend flushes when the WAL
// checkpoints, so New refuses one without a durable store.
func TestDiskStateRequiresDurable(t *testing.T) {
	ns, err := nodestore.Open(t.TempDir(), nodestore.Options{Sync: nodestore.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	n, err := New(Config{
		ID:         "d0",
		Key:        cryptoutil.KeyFromSeed([]byte("diskstate-node")),
		Engine:     liteEngine(7),
		ForkChoice: forkchoice.LongestChain{},
		Genesis:    NewGenesis("diskstate-test"),
		DiskState:  ns,
	})
	if n != nil || err == nil || !strings.Contains(err.Error(), "durable store") {
		t.Fatalf("New = %v, %v; want a refusal naming the durable store", n, err)
	}
}

// diskNode opens dir the way ledgerd does with -state-backend=disk —
// WAL and checkpoints in dir, node store in dir/state — and recovers a
// node from whatever is there. Tiny node-store segments, so compaction
// has sealed segments to drop.
func diskNode(t *testing.T, dir string, retention int) (*Node, *wal.DurableStore, *nodestore.Store, *types.Block) {
	t.Helper()
	n, ds, ns, genesis, err := diskNodeWith(t, dir, diskOpts{retention: retention})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return n, ds, ns, genesis
}

// diskNodeWith is diskNode with options; a failed recovery is returned,
// not fatal.
func diskNodeWith(t *testing.T, dir string, o diskOpts) (*Node, *wal.DurableStore, *nodestore.Store, *types.Block, error) {
	t.Helper()
	if o.ckptEvery == 0 {
		o.ckptEvery = diskCkptEvery
	}
	ds, rec, err := wal.OpenStore(dir, wal.StoreOptions{Fsync: seglog.SyncNever, SegmentSize: diskWALSegment, CheckpointEvery: o.ckptEvery})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { ds.Close() })
	var ns *nodestore.Store
	if !o.memory {
		if o.segment == 0 {
			o.segment = 256
		}
		ns, err = nodestore.Open(filepath.Join(dir, "state"), nodestore.Options{Sync: nodestore.SyncNever, SegmentSize: o.segment, CacheBytes: o.cache})
		if err != nil {
			t.Fatalf("nodestore.Open: %v", err)
		}
		t.Cleanup(func() { _ = ns.Close() })
	}
	genesis := NewGenesis(cmp.Or(o.genesis, "diskstate-test"))
	alloc, _ := diskAlloc()
	n, err := New(Config{
		ID:             "d0",
		Key:            cryptoutil.KeyFromSeed([]byte("diskstate-node")),
		Engine:         liteEngine(7),
		ForkChoice:     forkchoice.LongestChain{},
		Genesis:        genesis,
		Alloc:          alloc,
		Executor:       o.executor,
		Rewards:        incentive.Schedule{InitialReward: 50},
		Clock:          simclock.NewSimulator(),
		StateRetention: o.retention,
		Durable:        ds,
		DiskState:      ns,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n, ds, ns, genesis, n.Recover(rec)
}

// diskChainBuilder is a chain builder whose genesis state holds the
// disk tests' allocation.
func diskChainBuilder(t *testing.T, genesis *types.Block) *chainBuilder {
	bd := newChainBuilder(t, genesis)
	gst := state.New()
	alloc, _ := diskAlloc()
	for a, v := range alloc {
		gst.Credit(a, v)
	}
	bd.states[genesis.Hash()] = gst
	return bd
}

// rotate seals n blocks on parent, each mined by the next funded
// account, so successive blocks rewrite different trie paths.
func rotate(bd *chainBuilder, parent *types.Block, n int, miners []cryptoutil.Address) []*types.Block {
	out := make([]*types.Block, 0, n)
	for i := 0; i < n; i++ {
		parent = bd.extend(parent, miners[int(parent.Header.Height)%len(miners)])
		out = append(out, parent)
	}
	return out
}

// checkHeadProof requires a proof for addr that verifies against the
// current head header's state root and proves the head state's leaf.
func checkHeadProof(t *testing.T, n *Node, addr cryptoutil.Address) {
	t.Helper()
	head, _ := n.Tree().Get(n.Chain().Head())
	p, err := n.AccountProof(addr)
	if err != nil {
		t.Fatalf("h=%d: AccountProof: %v", head.Header.Height, err)
	}
	if p.Root != head.Header.StateRoot {
		t.Fatalf("h=%d: proof root %s, header root %s", head.Header.Height, p.Root.Short(), head.Header.StateRoot.Short())
	}
	got, _, err := mpt.VerifyProof(head.Header.StateRoot, addr[:], p.Proof)
	if err != nil {
		t.Fatalf("h=%d: proof does not verify: %v", head.Header.Height, err)
	}
	want, _ := n.State().AccountLeaf(addr)
	if !bytes.Equal(got, want) {
		t.Fatalf("h=%d: proven leaf %x, state leaf %x", head.Header.Height, got, want)
	}
}

// TestDiskStateFlushesAtCheckpointCadence: trie nodes reach the store
// only when the WAL checkpoints, the head serves verifying proofs at
// every height in between, and the store alone — reopened, no node in
// front of it — serves every root a checkpoint named.
func TestDiskStateFlushesAtCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	n, ds, ns, genesis := diskNode(t, dir, -1)
	tracer := obs.NewTracer(0)
	n.SetTracer(tracer)
	bd := diskChainBuilder(t, genesis)
	_, miners := diskAlloc()
	ghost := cryptoutil.KeyFromSeed([]byte("nobody")).Address()

	blocks := rotate(bd, genesis, 30, miners)
	for _, b := range blocks {
		before := ns.Stats().Appends
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
		}
		h := b.Header.Height
		checkHeadProof(t, n, miners[int(h-1)%len(miners)])
		checkHeadProof(t, n, ghost) // absence verifies too
		wrote := ns.Stats().Appends - before
		if flushDue := h%diskCkptEvery == 0; flushDue != (wrote > 0) {
			t.Fatalf("h=%d: %d node records written, flush due: %v", h, wrote, flushDue)
		}
		if flushed := n.disk.flushedHeight; flushed != h-h%diskCkptEvery {
			t.Fatalf("h=%d: flushed height %d, want %d", h, flushed, h-h%diskCkptEvery)
		}
		if (h%diskCkptEvery == 0) != ns.Has(b.Header.StateRoot) {
			t.Fatalf("h=%d: root in store: %v", h, ns.Has(b.Header.StateRoot))
		}
	}
	m := n.Metrics()
	if m.DiskFlushes != 1+3 || m.DiskErrors != 0 {
		t.Fatalf("DiskFlushes = %d (want genesis + 3 checkpoints), DiskErrors = %d", m.DiskFlushes, m.DiskErrors)
	}
	if got := ds.Stats().Checkpoints; got != 3 {
		t.Fatalf("%d WAL checkpoints, want 3", got)
	}
	// Both stages are their own spans: one state_commit per block with
	// the leaves it wrote, one disk_flush per checkpoint with the nodes.
	var commits, flushes int
	for _, sp := range tracer.Snapshot() {
		switch sp.Stage {
		case obs.StageStateCommit:
			commits++
			if sp.N != 1 {
				t.Fatalf("state_commit at height %d: N = %d, want the one coinbase leaf", sp.Height, sp.N)
			}
		case obs.StageDiskFlush:
			flushes++
			if sp.Height%diskCkptEvery != 0 || sp.N == 0 {
				t.Fatalf("disk_flush at height %d wrote %d nodes", sp.Height, sp.N)
			}
		}
	}
	if commits != 30 || flushes != 3 {
		t.Fatalf("%d state_commit and %d disk_flush spans, want 30 and 3", commits, flushes)
	}

	// What the states answer while the store is open is what the store
	// alone must answer once reopened.
	want := make(map[uint64][][]byte)
	for _, h := range []uint64{8, 16, 24} {
		st, _ := n.StateAt(blocks[h-1].Hash())
		for _, a := range miners[:32] {
			leaf, ok := st.AccountLeaf(a)
			if !ok {
				t.Fatalf("state at h=%d has no leaf for a funded account: %v", h, st.Err())
			}
			want[h] = append(want[h], leaf)
		}
	}
	if err := ns.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ns2, err := nodestore.Open(ns.Dir(), nodestore.Options{Sync: nodestore.SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ns2.Close()
	for _, h := range []uint64{8, 16, 24} {
		tr := mpt.Load(blocks[h-1].Header.StateRoot, 0, ns2)
		for i, a := range miners[:32] {
			if got, ok, err := tr.TryGet(a[:]); err != nil || !ok || !bytes.Equal(got, want[h][i]) {
				t.Fatalf("checkpointed root h=%d: TryGet = %x,%v,%v want %x", h, got, ok, err, want[h][i])
			}
		}
	}
}

// TestDiskStateReorgAcrossFlushBoundary: a branch that forks below the
// last flushed height builds its tries from the fork point's in-memory
// state, is flushed at its own checkpoint, and recovers as the head.
func TestDiskStateReorgAcrossFlushBoundary(t *testing.T) {
	dir := t.TempDir()
	n, ds, ns, genesis := diskNode(t, dir, -1)
	bd := diskChainBuilder(t, genesis)
	_, miners := diskAlloc()

	chainA := rotate(bd, genesis, 12, miners[:100]) // flushed at 8
	chainB := rotate(bd, chainA[4], 13, miners[100:])
	for _, b := range append(append([]*types.Block{}, chainA...), chainB...) {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
		}
		checkHeadProof(t, n, miners[3])
		checkHeadProof(t, n, miners[103])
	}
	tip := chainB[len(chainB)-1]
	if n.Chain().Head() != tip.Hash() || tip.Header.Height != 18 {
		t.Fatalf("head %s@%d, want branch B tip at 18", n.Chain().Head().Short(), n.Chain().Height())
	}
	// B became the head at 13 and its first due checkpoint is at 16.
	b16 := chainB[16-5-1]
	if root, h := n.disk.flushedRoot, n.disk.flushedHeight; h != 16 || root != b16.Header.StateRoot || !ns.Has(root) {
		t.Fatalf("flushed %s@%d, want B's root at 16 in the store", root.Short(), h)
	}
	if n.Metrics().DiskErrors != 0 || n.Metrics().Reorgs == 0 {
		t.Fatalf("DiskErrors %d, Reorgs %d", n.Metrics().DiskErrors, n.Metrics().Reorgs)
	}

	ds.Close()
	ns.Close()
	n2, _, _, _ := diskNode(t, dir, -1)
	if n2.Chain().Head() != tip.Hash() {
		t.Fatalf("recovered head %s, want branch B tip", n2.Chain().Head().Short())
	}
	checkHeadProof(t, n2, miners[103])
}

// TestSweepNeedsASealedSegmentBelowTheFloor: Compact never rewrites the
// active segment, so over a store of one segment the sweep that falls
// due has nothing it could drop and does not start — no mark walk (no
// read of the store), no prune counted, no span. The same chain over
// tiny segments sweeps at the same height, and the sweep is one
// disk_sweep span: the head it ran at, the records it dropped.
func TestSweepNeedsASealedSegmentBelowTheFloor(t *testing.T) {
	for name, segment := range map[string]int64{"one segment": nodestore.DefaultSegmentSize, "many": 0} {
		t.Run(name, func(t *testing.T) {
			n, _, ns, genesis, err := diskNodeWith(t, t.TempDir(), diskOpts{retention: 12, segment: segment})
			if err != nil {
				t.Fatal(err)
			}
			tracer := obs.NewTracer(0)
			n.SetTracer(tracer)
			bd := diskChainBuilder(t, genesis)
			_, miners := diskAlloc()
			blocks := rotate(bd, genesis, 64, miners[:100])
			handleAll(t, n, blocks) // the 64th flushes, checkpoints and is where the sweep falls due
			if n.disk.prunedHeight != 64 {
				t.Fatalf("pruned height %d: the sweep was not due at 64", n.disk.prunedHeight)
			}
			// Due again, with nothing else going on: what the store is
			// read for now, the sweep reads it for.
			before := ns.Stats()
			n.mu.Lock()
			n.disk.prunedHeight = 0
			n.pruneDiskLocked()
			n.mu.Unlock()
			after, m := ns.Stats(), n.Metrics()
			var sweeps []obs.Span
			for _, sp := range tracer.Snapshot() {
				if sp.Stage == obs.StageDiskSweep {
					sweeps = append(sweeps, sp)
				}
			}
			if m.DiskErrors != 0 {
				t.Fatalf("%d disk errors", m.DiskErrors)
			}
			if after.Segments == 1 {
				if reads := after.Reads - before.Reads; reads != 0 || m.DiskPrunes != 0 || len(sweeps) != 0 || after.Dropped != 0 {
					t.Fatalf("one segment: %d store reads, %d prunes, %d spans, %d dropped; want no sweep", reads, m.DiskPrunes, len(sweeps), after.Dropped)
				}
				return
			}
			if m.DiskPrunes != 2 || len(sweeps) != 2 || after.Dropped == 0 || after.Reads == before.Reads {
				t.Fatalf("%d segments: %d prunes, %d spans, %d dropped; want the sweep at 64 and the one forced after it", after.Segments, m.DiskPrunes, len(sweeps), after.Dropped)
			}
			if sp := sweeps[0]; sp.Height != 64 || sp.N != after.Dropped || sp.Block != blocks[63].Hash().Short() || sp.Dur <= 0 {
				t.Fatalf("disk_sweep span %+v; want height 64, N %d, block %s", sp, after.Dropped, blocks[63].Hash().Short())
			}
		})
	}
}

// TestDiskStatePrunesFlushedRoots: the sweep keeps every flushed root of
// the retention window readable and the one the window's oldest states
// still read through and drops older ones — and a reorg from below every
// flushed root the window still holds succeeds anyway, replayed from the
// base state, whose trie the sweep keeps.
func TestDiskStatePrunesFlushedRoots(t *testing.T) {
	const W = 12
	n, _, ns, genesis := diskNode(t, t.TempDir(), W)
	bd := diskChainBuilder(t, genesis)
	_, miners := diskAlloc()

	// The sweep runs with the flush at height 64 (diskPruneEvery), when
	// the window's floor is 64-W = 52.
	chainA := rotate(bd, genesis, 80, miners[:100])
	for _, b := range chainA {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("chain A h=%d: %v", b.Header.Height, err)
		}
	}
	if got := n.Metrics().DiskPrunes; got != 1 {
		t.Fatalf("DiskPrunes = %d, want the one sweep at height 64", got)
	}
	var live []cryptoutil.Hash
	for _, h := range []uint64{48, 56, 64, 72, 80} {
		live = append(live, chainA[h-1].Header.StateRoot)
	}
	for _, h := range []uint64{8, 16, 24, 32, 40} {
		if !trieDropped(t, ns, chainA[h-1].Header.StateRoot, live) {
			t.Fatalf("flushed root at height %d survived pruning", h)
		}
	}
	// 48 is below the floor, but the states at 52..54 read the trie of the
	// state detached at 49, which hangs on that flush.
	for _, h := range []uint64{48, 56, 64, 72, 80} {
		root := chainA[h-1].Header.StateRoot
		if v, ok, err := mpt.Load(root, 0, ns).TryGet(miners[5][:]); err != nil || !ok || len(v) == 0 {
			t.Fatalf("retained flushed root at height %d unreadable: ok=%v err=%v", h, ok, err)
		}
		if err := mpt.WalkNodes(ns, root, func(cryptoutil.Hash) bool { return true }, nil, nil); err != nil {
			t.Fatalf("retained flushed root at height %d does not walk: %v", h, err)
		}
	}
	// The window's oldest flushed root is the one at 56: the sweep kept it,
	// and the roots between the floor and it never reached the store.
	if !ns.Has(chainA[55].Header.StateRoot) {
		t.Fatal("the oldest flushed root in the window (height 56) is gone")
	}
	for h := uint64(52); h < 56; h++ {
		if ns.Has(chainA[h-1].Header.StateRoot) {
			t.Fatalf("unflushed root at height %d is in the store", h)
		}
	}

	chainB := rotate(bd, chainA[1], 79, miners[100:])
	for _, b := range chainB {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("chain B h=%d: %v", b.Header.Height, err)
		}
	}
	if n.Chain().Head() != chainB[len(chainB)-1].Hash() {
		t.Fatal("reorg to branch B did not happen")
	}
	if n.Metrics().DiskErrors != 0 {
		t.Fatalf("DiskErrors = %d after the reorg", n.Metrics().DiskErrors)
	}
	checkHeadProof(t, n, miners[100])
}

// trieDropped reports whether a sweep dropped root's trie: root's record
// is gone, or kept only as a base that a delta of the tries of live reads
// through, and a node of root's own trie is gone.
func trieDropped(t *testing.T, ns *nodestore.Store, root cryptoutil.Hash, live []cryptoutil.Hash) bool {
	t.Helper()
	if !ns.Has(root) {
		return true
	}
	bases := make(map[cryptoutil.Hash]bool)
	all := func(cryptoutil.Hash) bool { return true }
	for _, r := range live {
		if err := mpt.WalkNodes(ns, r, all, func(h cryptoutil.Hash) bool { bases[h] = true; return true }, nil); err != nil {
			t.Fatalf("live root %s does not walk: %v", r.Short(), err)
		}
	}
	return bases[root] && mpt.WalkNodes(ns, root, all, nil, nil) != nil
}

// TestDiskSweepKeepsWhatWindowStatesRead: a retained state whose own trie
// was released reads through its layers into the trie of the detached
// state under them, and that trie hangs on a flush that may lie below
// the sweep's floor. With no cache in front of the store, every state of
// the window still answers after the second sweep, and a reorg as deep as
// the window connects from one of them.
func TestDiskSweepKeepsWhatWindowStatesRead(t *testing.T) {
	const W = 40
	n, _, _, genesis, err := diskNodeWith(t, t.TempDir(), diskOpts{retention: W, cache: -1})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	bd := diskChainBuilder(t, genesis)
	_, miners := diskAlloc()

	chainA := rotate(bd, genesis, 130, miners[:100]) // sweeps at 64 and 128
	handleAll(t, n, chainA)
	if got := n.Metrics().DiskPrunes; got != 2 {
		t.Fatalf("DiskPrunes = %d, want the sweeps at 64 and 128", got)
	}
	for h := 130 - W; h <= 130; h++ {
		b := chainA[h-1]
		st, ok := n.StateAt(b.Hash())
		if !ok {
			t.Fatalf("no state at height %d", h)
		}
		view, want := st.Copy(), bd.states[b.Hash()]
		for _, a := range miners[:100] {
			if got := view.Balance(a); got != want.Balance(a) || view.Err() != nil {
				t.Fatalf("height %d, %s: balance %d, want %d (err %v)", h, a.Short(), got, want.Balance(a), view.Err())
			}
		}
	}
	if got := n.Metrics().StateRebuilds; got != 0 {
		t.Fatalf("StateRebuilds = %d: the window's states were not retained", got)
	}

	chainB := rotate(bd, chainA[89], W+1, miners[100:])
	handleAll(t, n, chainB)
	if n.Chain().Head() != chainB[W].Hash() {
		t.Fatal("reorg to branch B did not happen")
	}
	if m := n.Metrics(); m.DiskErrors != 0 || m.BlocksRejected != 0 || m.StateReadErrors != 0 {
		t.Fatalf("DiskErrors %d, BlocksRejected %d, StateReadErrors %d", m.DiskErrors, m.BlocksRejected, m.StateReadErrors)
	}
	checkHeadProof(t, n, miners[100])
}

// TestDiskSweepKeepsTheBasesOfLiveDeltas: a flushed branch is a delta
// against the one it replaced, which may lie in a flush below the sweep's
// floor and in no retained trie. With no cache in front of the store,
// the sweep keeps such bases, and every root it retains reads whole.
func TestDiskSweepKeepsTheBasesOfLiveDeltas(t *testing.T) {
	const W = 12
	n, _, ns, genesis, err := diskNodeWith(t, t.TempDir(), diskOpts{retention: W, cache: -1})
	if err != nil {
		t.Fatal(err)
	}
	bd := diskChainBuilder(t, genesis)
	_, miners := diskAlloc()
	chain := rotate(bd, genesis, 80, miners[:100]) // the sweep at 64, floor 52
	handleAll(t, n, chain)
	if m := n.Metrics(); m.DiskPrunes != 1 || m.DiskFlushDeltas == 0 || m.DiskFlushRecords <= m.DiskFlushDeltas || m.DiskFlushInline == 0 || ns.Stats().Dropped == 0 {
		t.Fatalf("%d sweeps, %d of %d records flushed as deltas, %d leaves inline, %d records dropped",
			m.DiskPrunes, m.DiskFlushDeltas, m.DiskFlushRecords, m.DiskFlushInline, ns.Stats().Dropped)
	}
	nodes, bases := make(map[cryptoutil.Hash]bool), make(map[cryptoutil.Hash]bool)
	for _, h := range []uint64{48, 56, 64, 72, 80} {
		root := chain[h-1].Header.StateRoot
		err := mpt.WalkNodes(ns, root, func(h cryptoutil.Hash) bool { nodes[h] = true; return true },
			func(h cryptoutil.Hash) bool { bases[h] = true; return true }, nil)
		if err != nil {
			t.Fatalf("retained root at height %d does not read: %v", h, err)
		}
		if _, ok, err := mpt.Load(root, 0, ns).TryGet(miners[h%100][:]); !ok || err != nil {
			t.Fatalf("retained root at height %d: ok %v, %v", h, ok, err)
		}
	}
	// What the walk hands the sweep's Marker is records only: a leaf is
	// inside its parent's.
	for _, marked := range []map[cryptoutil.Hash]bool{nodes, bases} {
		for h := range marked {
			if !ns.Has(h) {
				t.Fatalf("the walk marked %s, which has no record", h.Short())
			}
		}
	}
	only := 0
	for h := range bases {
		if !nodes[h] {
			only++
		}
	}
	if only == 0 {
		t.Fatal("every base is a node of a retained trie: nothing here needs the sweep to keep a base")
	}
}

// TestCrashMatrixFlushBeforeCheckpoint kills the node between the trie
// flush and the publication of the checkpoint that would have named it:
// the store is ahead of the newest checkpoint. Recovery starts from that
// older checkpoint, reaches the exact head through the journal, and the
// next flush finds most of its nodes already there.
func TestCrashMatrixFlushBeforeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	n1, ds1, ns1, genesis := diskNode(t, dir, -1)
	bd := diskChainBuilder(t, genesis)
	_, miners := diskAlloc()
	blocks := rotate(bd, genesis, 24, miners)
	for _, b := range blocks[:15] {
		if err := n1.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
		}
	}
	// The flush half of a checkpoint, and then nothing: kill -9.
	n1.mu.Lock()
	err := n1.persistTrieLocked(15, n1.states[blocks[14].Hash()], false)
	n1.mu.Unlock()
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := ds1.Stats().Checkpoints; got != 1 {
		t.Fatalf("%d checkpoints before the kill, want the one at height 8", got)
	}
	ds1.Close()
	ns1.Close()

	n2, _, ns2, _ := diskNode(t, dir, -1)
	if n2.Chain().Head() != blocks[14].Hash() {
		t.Fatalf("recovered head %s@%d, want the durable head at 15", n2.Chain().Head().Short(), n2.Chain().Height())
	}
	if h := n2.disk.flushedHeight; h != 8 {
		t.Fatalf("recovered flushed height %d, want the checkpoint's 8", h)
	}
	checkHeadProof(t, n2, miners[14])
	before := ns2.Stats().Appends
	for _, b := range blocks[15:] {
		if err := n2.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock h=%d after recovery: %v", b.Header.Height, err)
		}
		checkHeadProof(t, n2, miners[int(b.Header.Height-1)%len(miners)])
	}
	// Two flushes (16, 24) of 1 and 8 changed leaves over a trie the
	// store already held up to height 15.
	if wrote := ns2.Stats().Appends - before; wrote == 0 || wrote > 60 {
		t.Fatalf("flushes after recovery wrote %d node records, want a few paths", wrote)
	}
	if n2.Metrics().DiskErrors != 0 {
		t.Fatalf("DiskErrors = %d", n2.Metrics().DiskErrors)
	}
}

// copyFiles copies the regular files of directory src into dst.
func copyFiles(t *testing.T, dst, src string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashMatrixLostStateDir recovers with a state directory that does
// not hold the newest checkpoint's root. A checkpoint of the disk backend
// carries no snapshot, so what it names must be found some other way, and
// a root that was not re-derived is never served: the older checkpoint if
// the store holds that one's root (a state directory restored from a
// backup), else the whole journal from genesis (a state directory
// deleted), else — the journal does not reach the checkpoint's head — the
// node refuses to start and names the root it misses.
func TestCrashMatrixLostStateDir(t *testing.T) {
	// build runs a node to height 20 (checkpoints at 8 and 16) and closes
	// it; backup, if set, sees the directory at height 12.
	build := func(t *testing.T, backup func(dir string)) (string, []*types.Block) {
		dir := t.TempDir()
		n1, ds1, ns1, genesis := diskNode(t, dir, -1)
		bd := diskChainBuilder(t, genesis)
		_, miners := diskAlloc()
		blocks := rotate(bd, genesis, 32, miners)
		handleAll(t, n1, blocks[:12])
		if backup != nil {
			backup(dir)
		}
		handleAll(t, n1, blocks[12:20])
		ds1.Close()
		ns1.Close()
		return dir, blocks
	}
	// carryOn requires the exact head and a chain that goes on from it,
	// flushing incrementally.
	carryOn := func(t *testing.T, n *Node, ns *nodestore.Store, blocks []*types.Block) {
		t.Helper()
		_, miners := diskAlloc()
		if n.Chain().Head() != blocks[19].Hash() {
			t.Fatalf("recovered head %s@%d, want 20", n.Chain().Head().Short(), n.Chain().Height())
		}
		checkHeadProof(t, n, miners[19])
		before := ns.Stats().Appends
		for _, b := range blocks[20:] {
			if err := n.HandleBlock(b); err != nil {
				t.Fatalf("HandleBlock h=%d after recovery: %v", b.Header.Height, err)
			}
			checkHeadProof(t, n, miners[int(b.Header.Height-1)%len(miners)])
		}
		if root, h := n.disk.flushedRoot, n.disk.flushedHeight; h != 32 || !ns.Has(root) {
			t.Fatalf("flushed height %d (root in store: %v), want 32", h, ns.Has(root))
		}
		if wrote := ns.Stats().Appends - before; wrote == 0 || wrote > 200 {
			t.Fatalf("flushes after the recovery wrote %d records, want the paths of the blocks since", wrote)
		}
		if m := n.Metrics(); m.DiskErrors != 0 || m.StateReadErrors != 0 {
			t.Fatalf("DiskErrors %d, StateReadErrors %d", m.DiskErrors, m.StateReadErrors)
		}
	}

	t.Run("older-checkpoint", func(t *testing.T) {
		saved := t.TempDir()
		dir, blocks := build(t, func(dir string) {
			copyFiles(t, saved, filepath.Join(dir, "state"))
		})
		if err := os.RemoveAll(filepath.Join(dir, "state")); err != nil {
			t.Fatal(err)
		}
		copyFiles(t, filepath.Join(dir, "state"), saved)
		n2, _, ns2, _ := diskNode(t, dir, -1)
		if h := n2.disk.flushedHeight; h != 8 || ns2.Has(blocks[15].Header.StateRoot) {
			t.Fatalf("recovered from flushed height %d, want the older checkpoint's 8", h)
		}
		carryOn(t, n2, ns2, blocks)
	})
	t.Run("journal-from-genesis", func(t *testing.T) {
		dir, blocks := build(t, nil)
		if err := os.RemoveAll(filepath.Join(dir, "state")); err != nil {
			t.Fatal(err)
		}
		n2, _, ns2, _ := diskNode(t, dir, -1)
		if h := n2.disk.flushedHeight; h != 0 {
			t.Fatalf("flushed height %d: want a replay from the genesis trie", h)
		}
		carryOn(t, n2, ns2, blocks)
	})
	// A state/ written in a format the node store replaced is not read:
	// the store refuses it untouched and says what to do, and doing that
	// is the case above.
	t.Run("v1-format", func(t *testing.T) {
		dir, blocks := build(t, nil)
		stateDir := filepath.Join(dir, "state")
		if err := os.RemoveAll(stateDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(stateDir, "ns-00000001.seg"), []byte("DCSNS002"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := nodestore.Open(stateDir, nodestore.Options{Sync: nodestore.SyncNever})
		if err == nil || !strings.Contains(err.Error(), "DCSNS002") || !strings.Contains(err.Error(), "remove "+stateDir) {
			t.Fatalf("Open of a DCSNS002 state directory = %v, want a refusal naming the magic and the remedy", err)
		}
		if left, _ := os.ReadDir(stateDir); len(left) != 1 {
			t.Fatalf("the refused directory holds %d files, want it untouched", len(left))
		}
		if err := os.RemoveAll(stateDir); err != nil { // the remedy
			t.Fatal(err)
		}
		n2, _, ns2, _ := diskNode(t, dir, -1)
		if h := n2.disk.flushedHeight; h != 0 {
			t.Fatalf("flushed height %d: want a replay of the journal from the genesis trie", h)
		}
		carryOn(t, n2, ns2, blocks)
	})
	// Under another genesis every journaled block is refused, so the
	// journal does not reach the checkpoint's head either.
	t.Run("refuses", func(t *testing.T) {
		dir, blocks := build(t, nil)
		if err := os.RemoveAll(filepath.Join(dir, "state")); err != nil {
			t.Fatal(err)
		}
		_, _, _, _, err := diskNodeWith(t, dir, diskOpts{retention: -1, genesis: "another-network"})
		if want := blocks[15].Header.StateRoot.Hex(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Recover = %v, want a refusal naming the missing root %s", err, want)
		}
	})
}

// TestCheckpointOffItsHeadSeedsNothingDisk is the disk backend's case of
// TestCheckpointOffItsHeadSeedsNothing: a snapshotless checkpoint whose
// root the node store holds, but which its head's header does not carry,
// is opened by Recover and then seeds nothing at its head. The replay
// rebuilds that head's state from the genesis trie, so nothing is flushed
// in recovery and the exact head is reached with no block rejected.
func TestCheckpointOffItsHeadSeedsNothingDisk(t *testing.T) {
	dir := t.TempDir()
	n1, ds1, ns1, genesis := diskNode(t, dir, -1)
	bd := diskChainBuilder(t, genesis)
	_, miners := diskAlloc()
	blocks := rotate(bd, genesis, 24, miners)
	handleAll(t, n1, blocks[:20]) // flushed and checkpointed at 8 and 16
	other := blocks[15].Header.StateRoot
	if !ns1.Has(other) {
		t.Fatalf("the node store lacks the height-16 root %s", other.Short())
	}
	if err := ds1.Checkpoint(blocks[19], other, state.Load(other, ns1)); err != nil {
		t.Fatal(err)
	}
	handleAll(t, n1, blocks[20:])
	ds1.Close()
	ns1.Close()

	n2, _, _, _, err := diskNodeWith(t, dir, diskOpts{retention: -1})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if n2.Chain().Head() != blocks[23].Hash() || n2.Metrics().BlocksRejected != 0 {
		t.Fatalf("recovered %s@%d with %d rejected, want the head at 24 and none",
			n2.Chain().Head().Short(), n2.Chain().Height(), n2.Metrics().BlocksRejected)
	}
	if h := n2.disk.flushedHeight; h != 0 {
		t.Fatalf("flushed height %d: the checkpoint at 20 seeded its state, want nothing seeded", h)
	}
	checkHeadProof(t, n2, miners[23])
}

// TestCrashMatrixTornFlush crashes the node store in the middle of a
// flush batch (each failure mode): the flush reports the error, the
// checkpoint that would have named the half-written root is not
// published, the node keeps serving from memory, and a restart recovers
// the exact head from the older checkpoint and flushes cleanly again.
func TestCrashMatrixTornFlush(t *testing.T) {
	for _, mode := range []seglog.FailMode{seglog.FailCut, seglog.FailTorn, seglog.FailGarble} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			n1, ds1, ns1, genesis := diskNode(t, dir, -1)
			bd := diskChainBuilder(t, genesis)
			_, miners := diskAlloc()
			blocks := rotate(bd, genesis, 24, miners)
			for _, b := range blocks[:15] {
				if err := n1.HandleBlock(b); err != nil {
					t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
				}
			}
			ns1.SetFailpoint(mode, 3) // third frame of the flush at 16
			for _, b := range blocks[15:20] {
				if err := n1.HandleBlock(b); err != nil {
					t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
				}
				checkHeadProof(t, n1, miners[int(b.Header.Height-1)%len(miners)])
			}
			if m := n1.Metrics(); m.DiskErrors == 0 || m.WALAppendErrors != 0 {
				t.Fatalf("DiskErrors %d, WALAppendErrors %d: the failed flush must be counted, and only it", m.DiskErrors, m.WALAppendErrors)
			}
			if got := ds1.Stats().Checkpoints; got != 1 {
				t.Fatalf("%d checkpoints, want only the one at height 8", got)
			}
			if ns1.Has(blocks[15].Header.StateRoot) {
				t.Fatal("root of the torn flush was published")
			}
			ds1.Close()
			ns1.Close()

			n2, ds2, ns2, _ := diskNode(t, dir, -1)
			if n2.Chain().Head() != blocks[19].Hash() {
				t.Fatalf("recovered head %s@%d, want 20", n2.Chain().Head().Short(), n2.Chain().Height())
			}
			checkHeadProof(t, n2, miners[19])
			for _, b := range blocks[20:] {
				if err := n2.HandleBlock(b); err != nil {
					t.Fatalf("HandleBlock h=%d after recovery: %v", b.Header.Height, err)
				}
			}
			// The checkpoint was overdue: the first new head takes it.
			if root, h := n2.disk.flushedRoot, n2.disk.flushedHeight; h != 21 || !ns2.Has(root) || ds2.Stats().Checkpoints == 0 {
				t.Fatalf("after recovery: flushed height %d (root in store %v), %d checkpoints", h, ns2.Has(root), ds2.Stats().Checkpoints)
			}
			if n2.Metrics().DiskErrors != 0 {
				t.Fatalf("DiskErrors = %d after recovery", n2.Metrics().DiskErrors)
			}
		})
	}
}

// TestRecoverAppendsNothing: a recovery replays records that are already
// durable, so it leaves the journal as it found it — the same last
// sequence number, the same checkpoint files byte for byte — on either
// backend, whatever it replays: blocks the newest checkpoint covers,
// blocks past it, and the branch of a reorg.
func TestRecoverAppendsNothing(t *testing.T) {
	for name, memory := range map[string]bool{"memory": true, "disk": false} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			n1, ds1, ns1, genesis, err := diskNodeWith(t, dir, diskOpts{memory: memory})
			if err != nil {
				t.Fatal(err)
			}
			bd := diskChainBuilder(t, genesis)
			_, miners := diskAlloc()
			main := rotate(bd, genesis, 20, miners) // checkpoints at 8 and 16
			handleAll(t, n1, main)
			handleAll(t, n1, rotate(bd, main[17], 4, miners[100:])) // a branch off height 18 that wins at 21
			head := n1.Chain().Head()
			if m := n1.Metrics(); m.Reorgs != 1 || n1.Chain().Height() != 22 {
				t.Fatalf("reorgs %d, height %d; want one reorg to height 22", m.Reorgs, n1.Chain().Height())
			}
			lastSeq := ds1.Stats().WAL.LastSeq
			ds1.Close()
			if ns1 != nil {
				ns1.Close()
			}
			checkpoints := func() map[string]string {
				t.Helper()
				paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
				if err != nil || len(paths) == 0 {
					t.Fatalf("checkpoint files: %v, %v", paths, err)
				}
				files := make(map[string]string, len(paths))
				for _, p := range paths {
					raw, err := os.ReadFile(p)
					if err != nil {
						t.Fatal(err)
					}
					files[filepath.Base(p)] = string(raw)
				}
				return files
			}
			before := checkpoints()

			n2, ds2, _, _, err := diskNodeWith(t, dir, diskOpts{memory: memory})
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if m := n2.Metrics(); n2.Chain().Head() != head || m.RecoveredBlocks != 24 || m.BlocksAccepted != 8 {
				t.Fatalf("recovered head %s (want %s), %d blocks, %d of them executed; want 24 and the 8 past the checkpoint",
					n2.Chain().Head().Short(), head.Short(), m.RecoveredBlocks, m.BlocksAccepted)
			}
			if got := ds2.Stats().WAL.LastSeq; got != lastSeq {
				t.Fatalf("the journal ends at seq %d after recovery, %d before: recovery appended to it", got, lastSeq)
			}
			if after := checkpoints(); !maps.Equal(before, after) {
				t.Fatalf("checkpoint files changed across a recovery: %d before, %d after", len(before), len(after))
			}
		})
	}
}

// slowSource is a node store whose first read waits for release: a disk
// that takes its time under one reader.
type slowSource struct {
	mpt.NodeSource
	entered, release chan struct{}
}

func (s *slowSource) Node(h cryptoutil.Hash, decode func(cryptoutil.Hash, []byte) (any, int, error)) (any, error) {
	select {
	case s.entered <- struct{}{}: // the first reader only: the channel holds one
		<-s.release
	default:
	}
	return s.NodeSource.Node(h, decode)
}

// TestAccountProofDoesNotHoldTheNodeMutex: a proof request stuck reading
// the node store does not stop the node from connecting the next block,
// and still proves against the head it started from.
func TestAccountProofDoesNotHoldTheNodeMutex(t *testing.T) {
	n, _, ns, genesis := diskNode(t, t.TempDir(), -1)
	bd := diskChainBuilder(t, genesis)
	_, miners := diskAlloc()
	blocks := rotate(bd, genesis, diskCkptEvery+1, miners)
	handleAll(t, n, blocks[:diskCkptEvery]) // the head's trie is flushed: reads go to the store
	head := blocks[diskCkptEvery-1]

	st, err := n.HeadState()
	if err != nil {
		t.Fatalf("HeadState: %v", err)
	}
	slow := &slowSource{NodeSource: ns, entered: make(chan struct{}, 1), release: make(chan struct{})}
	if !st.AdoptTrie(mpt.Load(head.Header.StateRoot, st.AccountTrie().Len(), slow)) {
		t.Fatal("AdoptTrie refused the head's own root")
	}

	type result struct {
		p   *AccountProof
		err error
	}
	proved := make(chan result, 1)
	go func() {
		p, err := n.AccountProof(miners[3])
		proved <- result{p, err}
	}()
	for len(slow.entered) == 0 { // the proof is inside the store read
		time.Sleep(time.Millisecond)
	}
	connected := make(chan error, 1)
	go func() { connected <- n.HandleBlock(blocks[diskCkptEvery]) }()
	select {
	case err := <-connected:
		if err != nil {
			t.Fatalf("HandleBlock: %v", err)
		}
	case <-time.After(10 * time.Second):
		close(slow.release)
		t.Fatal("HandleBlock waited for a proof request's store read")
	}
	close(slow.release)
	r := <-proved
	if r.err != nil {
		t.Fatalf("AccountProof: %v", r.err)
	}
	if r.p.Root != head.Header.StateRoot || n.Chain().Head() != blocks[diskCkptEvery].Hash() {
		t.Fatalf("proof root %s, want the head's it started from %s; head now at %d",
			r.p.Root.Short(), head.Header.StateRoot.Short(), n.Chain().Height())
	}
	if _, ok, err := mpt.VerifyProof(r.p.Root, miners[3][:], r.p.Proof); err != nil || !ok {
		t.Fatalf("proof does not verify: present %v, %v", ok, err)
	}
}
