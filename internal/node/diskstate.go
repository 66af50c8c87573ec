// Disk-backed authenticated state. With Config.DiskState set, the
// account trie every state commits and reads through (state.State.AccountTrie)
// is a trie over a nodestore.Store, and so are the storage tries and the
// code its leaves name: clean nodes resolve from the store through its
// bounded cache, and only what was written since the last flush is held
// in memory. There is no second copy to keep in step: the root the block
// header carries is the root of this trie, and the state is this trie.
//
// Nodes reach the store at checkpoint cadence, not per block: what the
// head holds unflushed is written in one batch just before the WAL
// publishes a checkpoint naming that head, so a checkpoint never names a
// root the store lacks (it records the root and no snapshot), and nodes
// superseded inside a checkpoint interval are never written at all.
// Recovery opens the checkpoint's root and rebuilds the later tries by
// connecting the journaled blocks, so nothing newer than a checkpoint
// needs to be on disk.
package node

import (
	"bytes"
	"fmt"
	"slices"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
	"dcsledger/internal/nodestore"
	"dcsledger/internal/obs"
	"dcsledger/internal/state"
)

// diskPruneEvery is how many blocks pass between mark-and-compact sweeps
// of the disk state store (a sweep runs after a flush, and reads every
// marked trie through the store).
const diskPruneEvery = 64

// diskState is the node's handle on the persistent account trie.
type diskState struct {
	store *nodestore.Store
	// flushedRoot at flushedHeight is the newest trie written to the
	// store; prunedHeight is the head height of the last sweep.
	flushedRoot   cryptoutil.Hash
	flushedHeight uint64
	prunedHeight  uint64
}

// flushSink is a flush's batch, counting the deltas and the inline leaves
// staged. With rewrite it claims to hold nothing, so a trie committed to
// it is written out whole; the batch under it still skips what the store
// has.
type flushSink struct {
	*nodestore.Batch
	rewrite        bool
	deltas, inline int
}

func (s *flushSink) Has(h cryptoutil.Hash) bool { return !s.rewrite && s.Batch.Has(h) }

func (s *flushSink) Put(h cryptoutil.Hash, enc []byte) error {
	if mpt.IsDelta(enc) {
		s.deltas++
	}
	s.inline += mpt.InlineLeaves(enc)
	return s.Batch.Put(h, enc)
}

// persistTrieLocked writes what st's account trie holds that the store
// does not yet — trie nodes, and ahead of each contract's leaf its
// storage trie and code (none when the root is already there, unless
// rewrite) — makes it durable, and swaps the state's trie for one loaded
// back over the store, so what was written leaves memory. It is a no-op
// on the memory backend. Caller holds n.mu.
func (n *Node) persistTrieLocked(height uint64, st *state.State, rewrite bool) error {
	d := n.disk
	if d == nil {
		return nil
	}
	sw := obs.StartTimer()
	tr := st.AccountTrie()
	if tr == nil {
		return fmt.Errorf("node: flush state trie at height %d: %w", height, st.Err())
	}
	sink := &flushSink{Batch: d.store.NewBatch(height), rewrite: rewrite}
	root, err := tr.Commit(sink)
	written := sink.Len()
	if err == nil {
		err = sink.Commit()
	}
	if err == nil {
		// Whatever the batch sync policy: the caller is about to publish
		// a checkpoint that names this root.
		err = d.store.Sync()
	}
	if err != nil {
		n.metrics.DiskErrors++
		return fmt.Errorf("node: flush state trie at height %d: %w", height, err)
	}
	st.AdoptTrie(mpt.Load(root, tr.Len(), d.store))
	d.flushedRoot, d.flushedHeight = root, height
	n.metrics.DiskFlushes++
	n.metrics.DiskFlushRecords += uint64(written)
	n.metrics.DiskFlushDeltas += uint64(sink.deltas)
	n.metrics.DiskFlushInline += uint64(sink.inline)
	n.obs.Observe(obs.StageDiskFlush, sw.Start(), sw.Elapsed(), obs.At{Height: height, N: uint64(written)})
	return nil
}

// checkpointLocked runs the durability cadence for the new head tip:
// when a checkpoint is due, the head's trie is flushed to the disk
// backend first and the WAL checkpoint is published only if that
// succeeded. Caller holds n.mu.
func (n *Node) checkpointLocked(tip cryptoutil.Hash) {
	ds := n.cfg.Durable
	if ds == nil {
		return
	}
	hb, ok := n.tree.Get(tip)
	if !ok || ds.Failed() != nil || !ds.CheckpointDue(hb.Header.Height) {
		return
	}
	st, err := n.stateOfLocked(tip)
	if err != nil {
		return
	}
	if err := n.persistTrieLocked(hb.Header.Height, st, false); err != nil {
		return
	}
	if err := ds.Checkpoint(hb, hb.Header.StateRoot, st); err != nil {
		n.metrics.WALAppendErrors++
	}
	n.pruneDiskLocked()
}

// pruneDiskLocked runs the mark-and-compact sweep once the head has
// moved diskPruneEvery blocks since the last one. Marked live: every
// canonical root of the retention window that was flushed, the flushed
// root under the trie each retained state reads from (a state whose own
// trie was released reads the trie of the detached state under it, and
// that one may hang on a flush below the window), the roots the retained
// WAL checkpoints name (recovery opens the state by them, however short
// the window), and the base state rebuilds replay from — each with the
// storage tries and code its leaves name (walks share subtrees, so
// consecutive roots cost only their deltas). Compact drops records that
// are both below the height floor and unreachable from a marked root.
// Unflushed roots have no records to keep. The mark reads every retained
// trie through the store, so it is not started unless a sealed segment
// holds a record old enough to drop: a store of one segment never
// sweeps. Caller holds n.mu.
func (n *Node) pruneDiskLocked() {
	d := n.disk
	w := n.cfg.StateRetention
	head := n.chain.Height()
	if d == nil || w < 0 || head <= uint64(w) || head < d.prunedHeight+diskPruneEvery {
		return // w < 0: an archive node never prunes the disk trie either
	}
	d.prunedHeight = head
	floor := head - uint64(w)
	if !d.store.SealedBelow(floor) {
		return
	}
	sw := obs.StartTimer()
	marker := nodestore.NewMarker()
	// A root the store lacks has nothing to keep: an unflushed block's, or
	// a storage trie named by a leaf written before storage was kept here.
	walk := func(root cryptoutil.Hash, leaf func([]byte) error) error {
		if !d.store.Has(root) {
			return nil
		}
		return mpt.WalkNodes(d.store, root, marker.Keep, marker.KeepBase, leaf)
	}
	refs := func(leaf []byte) error {
		storage, code, err := state.LeafRefs(leaf)
		if err != nil {
			return err
		}
		if !code.IsZero() {
			marker.Keep(code)
		}
		return walk(storage, nil)
	}
	var failed error
	keep := func(root cryptoutil.Hash) {
		if failed == nil {
			failed = walk(root, refs)
		}
	}
	keep(n.baseState.Commit())
	for _, root := range n.cfg.Durable.CheckpointRoots() {
		keep(root)
	}
	var under []cryptoutil.Hash
	for _, st := range n.states {
		if tr, _ := st.Under(); tr != nil {
			under = append(under, tr.LoadedFrom())
		}
	}
	slices.SortFunc(under, func(a, b cryptoutil.Hash) int { return bytes.Compare(a[:], b[:]) })
	for _, root := range slices.Compact(under) {
		keep(root)
	}
	for h := floor; h <= head; h++ {
		bh, _ := n.chain.AtHeight(h)
		if hdr, ok := n.tree.Header(bh); ok {
			keep(hdr.StateRoot)
		}
	}
	if failed != nil {
		n.metrics.DiskErrors++
		return // a failed mark walk must veto compaction
	}
	dropped, err := d.store.Compact(marker, floor)
	if err != nil {
		n.metrics.DiskErrors++
		return
	}
	n.metrics.DiskPrunes++
	n.obs.Observe(obs.StageDiskSweep, sw.Start(), sw.Elapsed(), obs.At{Height: head, N: uint64(dropped), Block: n.chain.Head().Short()})
}

// AccountProof is a Merkle proof of one account leaf against the
// canonical head's state root. Leaf is nil for an absent account (the
// proof then shows absence); both cases verify with mpt.VerifyProof.
type AccountProof struct {
	Root  cryptoutil.Hash
	Addr  cryptoutil.Address
	Leaf  []byte
	Proof [][]byte
}

// AccountProof builds a Merkle proof for addr's account leaf against
// the current head's state root from the head state's own trie:
// on the disk backend unflushed nodes from memory and clean ones from
// the store, O(path) of them. Only taking the trie holds n.mu: a
// committed trie is persistent and immutable, so the walk through the
// store and the re-verification run beside submits and block connects,
// not in front of them.
func (n *Node) AccountProof(addr cryptoutil.Address) (*AccountProof, error) {
	tr, err := n.headTrie()
	if err != nil {
		return nil, err
	}
	root := tr.RootHash()
	proof, err := tr.Prove(addr[:])
	if err != nil {
		return nil, err
	}
	leaf, _, err := mpt.VerifyProof(root, addr[:], proof)
	if err != nil {
		return nil, fmt.Errorf("node: generated proof fails verification: %w", err)
	}
	return &AccountProof{Root: root, Addr: addr, Leaf: leaf, Proof: proof}, nil
}

func (n *Node) headTrie() (*mpt.Trie, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, err := n.stateOfLocked(n.chain.Head())
	if err != nil {
		return nil, fmt.Errorf("node: head state: %w", err)
	}
	tr := st.AccountTrie()
	if tr == nil {
		return nil, fmt.Errorf("node: head state trie: %w", st.Err())
	}
	return tr, nil
}
