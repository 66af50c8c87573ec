package node

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/seglog"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// durableNode builds a node backed by a DurableStore over dir and runs
// recovery from whatever the directory already holds. Small segments
// and a short checkpoint cadence so a few dozen blocks exercise
// rotation, checkpointing, and the structural-reconnect path.
func durableNode(t *testing.T, dir string, fsync seglog.SyncPolicy) (*Node, *wal.DurableStore, *types.Block) {
	t.Helper()
	n, ds, _, genesis := durableNodeOpts(t, dir, wal.StoreOptions{
		Fsync:           fsync,
		SegmentSize:     4 << 10,
		CheckpointEvery: 8,
	})
	return n, ds, genesis
}

// durableNodeOpts is durableNode with explicit store options, also
// returning the raw recovery for tests that inspect the checkpoint.
func durableNodeOpts(t *testing.T, dir string, opts wal.StoreOptions) (*Node, *wal.DurableStore, *wal.Recovery, *types.Block) {
	t.Helper()
	ds, rec, err := wal.OpenStore(dir, opts)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { ds.Close() })
	genesis := NewGenesis("durability-test")
	n, err := New(Config{
		ID:         "d0",
		Key:        cryptoutil.KeyFromSeed([]byte("durability-node")),
		Engine:     liteEngine(2),
		ForkChoice: forkchoice.LongestChain{},
		Genesis:    genesis,
		Rewards:    incentive.Schedule{InitialReward: 50},
		Clock:      simclock.NewSimulator(),
		Durable:    ds,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := n.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return n, ds, rec, genesis
}

// chainIndex captures a chain's height->hash mapping for prefix checks.
func chainIndex(n *Node) map[uint64]cryptoutil.Hash {
	idx := make(map[uint64]cryptoutil.Hash)
	for h := uint64(0); h <= n.Chain().Height(); h++ {
		if hash, ok := n.Chain().AtHeight(h); ok {
			idx[h] = hash
		}
	}
	return idx
}

// TestCrashMatrix is the acceptance matrix of the durability layer:
// every failure mode (clean cut, torn record, garbled CRC) under every
// fsync policy must recover to a verified prefix of the pre-crash
// chain, with the head state root re-proven from the recovered state.
// The crash lands on the record of a block that became the head as it
// was journaled, block and head switch in one: recovery must come back
// at the head before it, without the block, and the recovered head must
// be a block the journal holds.
func TestCrashMatrix(t *testing.T) {
	modes := []seglog.FailMode{seglog.FailCut, seglog.FailTorn, seglog.FailGarble}
	policies := []seglog.SyncPolicy{seglog.SyncAlways, seglog.SyncInterval, seglog.SyncNever}
	for _, mode := range modes {
		for _, pol := range policies {
			t.Run(mode.String()+"/"+pol.String(), func(t *testing.T) {
				dir := t.TempDir()
				n1, ds1, genesis := durableNode(t, dir, pol)
				bd := newChainBuilder(t, genesis)
				miner := cryptoutil.KeyFromSeed([]byte("crash-miner")).Address()
				blocks := bd.chain(genesis, 30, miner)

				// Feed the first 20 blocks, then arm a crash on the 5th
				// following WAL append (mid-stream, past a checkpoint at
				// height 8 and 16 so recovery exercises both the
				// structural and the full replay path).
				for _, b := range blocks[:20] {
					if err := n1.HandleBlock(b); err != nil {
						t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
					}
				}
				ds1.SetFailpoint(mode, 5)
				crashed := false
				for _, b := range blocks[20:] {
					if err := n1.HandleBlock(b); err != nil {
						t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
					}
					if ds1.Failed() != nil {
						crashed = true
						break
					}
				}
				if !crashed {
					t.Fatal("failpoint never fired")
				}
				if err := ds1.Failed(); !strings.Contains(err.Error(), seglog.ErrCrashed.Error()) {
					t.Fatalf("the store latched %v, not the crash", err)
				}
				if n1.Metrics().WALAppendErrors == 0 {
					t.Fatal("node did not count the WAL append error")
				}
				preIdx := chainIndex(n1)
				preHeight := n1.Chain().Height()
				ds1.Close()

				// Reopen the directory: a fresh node must recover a
				// verified prefix of the pre-crash chain.
				n2, ds2, rec, _ := durableNodeOpts(t, dir, wal.StoreOptions{Fsync: pol, SegmentSize: 4 << 10, CheckpointEvery: 8})
				if !ds2.HasBlock(rec.Head) {
					t.Fatalf("the journal's head %s is not a block it holds", rec.Head.Short())
				}
				// The fifth append was block 25's, and the head with it.
				if cut := blocks[24].Hash(); ds2.HasBlock(cut) || rec.Head != blocks[23].Hash() || n2.Chain().Head() != rec.Head {
					t.Fatalf("recovered head %s (journal's %s); want %s, without the block the crash cut",
						n2.Chain().Head().Short(), rec.Head.Short(), blocks[23].Hash().Short())
				}
				recHeight := n2.Chain().Height()
				if recHeight == 0 {
					t.Fatal("recovered nothing")
				}
				if recHeight > preHeight {
					t.Fatalf("recovered height %d beyond pre-crash height %d", recHeight, preHeight)
				}
				// The in-memory chain outran the latched store by at most
				// the corrupted append and the blocks fed before the
				// failure was observed; everything durable must be there.
				if recHeight < preHeight-2 {
					t.Fatalf("recovered height %d, want >= %d (pre-crash %d)", recHeight, preHeight-2, preHeight)
				}
				for h := uint64(0); h <= recHeight; h++ {
					got, ok := n2.Chain().AtHeight(h)
					if !ok {
						t.Fatalf("recovered chain has no block at height %d", h)
					}
					if got != preIdx[h] {
						t.Fatalf("height %d: recovered %s, pre-crash %s — not a prefix",
							h, got.Short(), preIdx[h].Short())
					}
				}
				// End-to-end state proof: the recovered head state commits
				// to the head header's state root.
				head, _ := n2.Tree().Get(n2.Chain().Head())
				if root := n2.State().Commit(); root != head.Header.StateRoot {
					t.Fatalf("recovered head state root %s != header %s",
						root.Short(), head.Header.StateRoot.Short())
				}
				if n2.Metrics().RecoveredBlocks == 0 {
					t.Fatal("RecoveredBlocks metric not incremented")
				}
			})
		}
	}
}

// TestCleanShutdownRecoversExactHead kills nothing: after a graceful
// close, reopening the data dir must restore the exact pre-shutdown
// head, height, and balances.
func TestCleanShutdownRecoversExactHead(t *testing.T) {
	dir := t.TempDir()
	n1, ds1, genesis := durableNode(t, dir, seglog.SyncInterval)
	bd := newChainBuilder(t, genesis)
	miner := cryptoutil.KeyFromSeed([]byte("clean-miner")).Address()
	for _, b := range bd.chain(genesis, 25, miner) {
		if err := n1.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock: %v", err)
		}
	}
	wantHead, wantHeight := n1.Chain().Head(), n1.Chain().Height()
	wantBal := n1.State().Balance(miner)
	if err := ds1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	n2, _, _ := durableNode(t, dir, seglog.SyncInterval)
	if n2.Chain().Head() != wantHead || n2.Chain().Height() != wantHeight {
		t.Fatalf("recovered head %s@%d, want %s@%d",
			n2.Chain().Head().Short(), n2.Chain().Height(), wantHead.Short(), wantHeight)
	}
	if got, err := n2.Balance(miner); err != nil || got != wantBal {
		t.Fatalf("recovered miner balance %d, want %d", got, wantBal)
	}
}

// TestRecoverThenContinue proves a recovered node is a full citizen: it
// keeps accepting blocks, journaling them, and surviving another
// restart.
func TestRecoverThenContinue(t *testing.T) {
	dir := t.TempDir()
	n1, ds1, genesis := durableNode(t, dir, seglog.SyncAlways)
	bd := newChainBuilder(t, genesis)
	miner := cryptoutil.KeyFromSeed([]byte("continue-miner")).Address()
	blocks := bd.chain(genesis, 30, miner)
	for _, b := range blocks[:12] {
		if err := n1.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock: %v", err)
		}
	}
	ds1.Close()

	n2, ds2, _ := durableNode(t, dir, seglog.SyncAlways)
	if n2.Chain().Height() != 12 {
		t.Fatalf("recovered height %d, want 12", n2.Chain().Height())
	}
	// Continue with the rest of the chain (duplicates are fine).
	for _, b := range blocks[12:] {
		if err := n2.HandleBlock(b); err != nil && !errors.Is(err, ErrKnownBlock) {
			t.Fatalf("HandleBlock after recovery: %v", err)
		}
	}
	if n2.Chain().Height() != 30 {
		t.Fatalf("height after continuing %d, want 30", n2.Chain().Height())
	}
	if ds2.Stats().WAL.Appends == 0 {
		t.Fatal("recovered node journaled nothing")
	}
	ds2.Close()

	n3, _, _ := durableNode(t, dir, seglog.SyncAlways)
	if n3.Chain().Head() != n2.Chain().Head() || n3.Chain().Height() != 30 {
		t.Fatalf("second recovery head %s@%d, want %s@30",
			n3.Chain().Head().Short(), n3.Chain().Height(), n2.Chain().Head().Short())
	}
}

// TestRecoverReorgedChain journals a reorg (two branches, head
// switching to the longer one) and verifies recovery lands on the
// post-reorg head, not the abandoned branch.
func TestRecoverReorgedChain(t *testing.T) {
	dir := t.TempDir()
	n1, ds1, genesis := durableNode(t, dir, seglog.SyncAlways)
	bd := newChainBuilder(t, genesis)
	minerA := cryptoutil.KeyFromSeed([]byte("reorg-a")).Address()
	minerB := cryptoutil.KeyFromSeed([]byte("reorg-b")).Address()
	short := bd.chain(genesis, 3, minerA)
	long := bd.chain(genesis, 5, minerB)
	for _, b := range append(append([]*types.Block{}, short...), long...) {
		if err := n1.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock: %v", err)
		}
	}
	if n1.Chain().Head() != long[len(long)-1].Hash() {
		t.Fatalf("head %s, want long branch tip", n1.Chain().Head().Short())
	}
	ds1.Close()

	n2, _, _ := durableNode(t, dir, seglog.SyncAlways)
	if n2.Chain().Head() != long[len(long)-1].Hash() {
		t.Fatalf("recovered head %s, want post-reorg tip %s",
			n2.Chain().Head().Short(), long[len(long)-1].Hash().Short())
	}
	// Both branches survive in the tree (the journal keeps everything).
	for _, b := range short {
		if !n2.Tree().Has(b.Hash()) {
			t.Fatalf("abandoned-branch block h=%d lost in recovery", b.Header.Height)
		}
	}
}

// TestCrashMatrixCutBelowCheckpoint: a byte flipped in a sealed journal
// segment cuts the log below both retained checkpoints. The next open
// removes them, as they cover records the journal no longer holds, and
// recovers the journal's verified prefix; the blocks connected after that
// restart, and the checkpoint written among them, survive the restart
// after it: the blocks reuse the removed checkpoints' seqs, so a stale
// checkpoint left behind would be newer, by name, than theirs.
func TestCrashMatrixCutBelowCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := wal.StoreOptions{Fsync: seglog.SyncAlways, SegmentSize: 1 << 10, CheckpointEvery: 8}
	n1, ds1, _, genesis := durableNodeOpts(t, dir, opts)
	bd := newChainBuilder(t, genesis)
	miner := cryptoutil.KeyFromSeed([]byte("cut-miner")).Address()
	handleAll(t, n1, bd.chain(genesis, 30, miner))
	ds1.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(segs) < 4 {
		t.Fatalf("journal segments %v (%v), want several", segs, err)
	}
	data, err := os.ReadFile(segs[1]) // Glob sorts: the second segment
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	n2, ds2, rec2, _ := durableNodeOpts(t, dir, opts)
	cutAt := n2.Chain().Height()
	if cutAt == 0 || cutAt >= 16 || cutAt != rec2.TipHeight() || rec2.Checkpoint != nil {
		t.Fatalf("second open: height %d, journal tip %d, checkpoint %+v; want the journal's prefix below both checkpoints and no checkpoint", cutAt, rec2.TipHeight(), rec2.Checkpoint)
	}
	if got := rec2.SkippedCheckpoints; len(got) != 2 || !strings.Contains(got[0].Reason.Error(), "past the journal's last record") {
		t.Fatalf("skipped %v, want both checkpoints removed as past the journal's end", got)
	}
	head2, _ := n2.Tree().Get(n2.Chain().Head())
	handleAll(t, n2, bd.chain(head2, 12, miner))
	want := n2.Chain().Head()
	wantHeight := n2.Chain().Height()
	if wantHeight != cutAt+12 || ds2.Stats().Checkpoints == 0 {
		t.Fatalf("second session reached %d with %d checkpoints, want %d and one at least", wantHeight, ds2.Stats().Checkpoints, cutAt+12)
	}
	ckHeight := wantHeight - wantHeight%8
	ds2.Close()

	n3, _, rec3, _ := durableNodeOpts(t, dir, opts)
	if n3.Chain().Head() != want || n3.Chain().Height() != wantHeight {
		t.Fatalf("third open recovered %s@%d, want the second session's head %s@%d",
			n3.Chain().Head().Short(), n3.Chain().Height(), want.Short(), wantHeight)
	}
	if ck := rec3.Checkpoint; ck == nil || ck.Height != ckHeight || len(rec3.SkippedCheckpoints) != 0 {
		t.Fatalf("third open loaded checkpoint %+v (skipped %v), want the second session's at height %d", ck, rec3.SkippedCheckpoints, ckHeight)
	}
	if m := n3.Metrics(); m.BlocksRejected != 0 || m.RecoveredBlocks != wantHeight {
		t.Fatalf("third open: %d recovered, %d rejected; want %d, 0", m.RecoveredBlocks, m.BlocksRejected, wantHeight)
	}
}

// TestCheckpointOffItsHeadSeedsNothing: a checkpoint whose state root is
// not the one its head's header carries is not seeded at its head; the
// blocks after it rebuild their parent state from the journal, and the
// recovery reaches the exact head.
func TestCheckpointOffItsHeadSeedsNothing(t *testing.T) {
	dir := t.TempDir()
	opts := wal.StoreOptions{Fsync: seglog.SyncAlways, CheckpointEvery: 1000}
	n1, ds1, _, genesis := durableNodeOpts(t, dir, opts)
	bd := newChainBuilder(t, genesis)
	blocks := bd.chain(genesis, 10, cryptoutil.KeyFromSeed([]byte("off-miner")).Address())
	handleAll(t, n1, blocks[:8])
	other := state.New()
	other.Credit(cryptoutil.KeyFromSeed([]byte("nobody")).Address(), 1)
	if err := ds1.Checkpoint(blocks[7], other.Commit(), other); err != nil {
		t.Fatal(err)
	}
	handleAll(t, n1, blocks[8:])
	ds1.Close()

	n2, _, rec, _ := durableNodeOpts(t, dir, opts)
	if rec.Checkpoint == nil || rec.Checkpoint.Head != blocks[7].Hash() {
		t.Fatalf("checkpoint %+v not loaded", rec.Checkpoint)
	}
	if n2.Chain().Head() != blocks[9].Hash() || n2.Metrics().BlocksRejected != 0 {
		t.Fatalf("recovered %s@%d with %d rejected, want the head at 10 and none",
			n2.Chain().Head().Short(), n2.Chain().Height(), n2.Metrics().BlocksRejected)
	}
	if root := n2.State().Commit(); root != blocks[9].Header.StateRoot {
		t.Fatalf("head state root %s, header %s", root.Short(), blocks[9].Header.StateRoot.Short())
	}
}

// TestRecoverPastUnusableRecord: a CRC-valid record the journal cannot
// use — a RecBlock holding "not a block", as a writer bug would leave it
// behind the last block — is cut by the next open with everything behind
// it, so the blocks the recovered node journals take its place and
// survive the restart after that, each reading back from the journal.
// While such a record stayed on disk, every block journaled behind it was
// dropped again at the next open.
func TestRecoverPastUnusableRecord(t *testing.T) {
	const n, m = 10, 6
	dir := t.TempDir()
	n1, ds1, genesis := durableNode(t, dir, seglog.SyncAlways)
	bd := newChainBuilder(t, genesis)
	blocks := bd.chain(genesis, n+m, cryptoutil.KeyFromSeed([]byte("unusable-miner")).Address())
	for _, b := range blocks[:n] {
		if err := n1.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock: %v", err)
		}
	}
	hdr := binary.BigEndian.AppendUint64(nil, ds1.Stats().WAL.LastSeq+1)
	frame := seglog.AppendFrame(nil, append(hdr, wal.RecBlock), []byte("not a block"))
	ds1.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	n2, ds2, _ := durableNode(t, dir, seglog.SyncAlways)
	if h, cut := n2.Chain().Height(), ds2.Stats().WAL.TornTruncated; h != n || cut != uint64(len(frame)) {
		t.Fatalf("restart: height %d, %d bytes cut; want %d, the record's %d", h, cut, n, len(frame))
	}
	for _, b := range blocks[n:] {
		if err := n2.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock after the restart: %v", err)
		}
	}
	ds2.Close()

	n3, ds3, _ := durableNode(t, dir, seglog.SyncAlways)
	if h := n3.Chain().Height(); h != n+m || n3.Chain().Head() != blocks[n+m-1].Hash() {
		t.Fatalf("second restart: height %d, head %s; want %d, %s", h, n3.Chain().Head().Short(), n+m, blocks[n+m-1].Hash().Short())
	}
	for _, b := range blocks[n:] {
		if got, err := ds3.ReadBlock(b.Hash()); err != nil || got.Hash() != b.Hash() {
			t.Fatalf("block %d journaled after the restart: %v", b.Header.Height, err)
		}
	}
}
