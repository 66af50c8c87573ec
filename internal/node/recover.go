package node

import (
	"errors"
	"fmt"

	"dcsledger/internal/obs"
	"dcsledger/internal/state"
	"dcsledger/internal/wal"
)

// Recover rebuilds the block tree, main chain, and head state from a
// durable store's Recovery. Call once, after New and before
// Attach/Start.
//
// The journal is streamed, one record at a time in log order, and the
// bodies of blocks that fall out of the body window are let go as the
// replay advances: peak memory is that of the headers plus the window,
// not of the chain. Blocks at or below the newest valid checkpoint run
// the verify stage without signatures and the store stage without a state
// (tx root, seal and height/parent linkage are re-checked; their state
// transitions were verified before the crash and are covered by the
// checkpoint's verified state root). Blocks past the checkpoint run
// verify, execute and store as a block from a peer does. Nothing runs the
// journal stage: every record is durable already, so a recovery appends
// nothing to the log and writes no checkpoint. Journaled head switches are
// replayed as they come, which moves the body and state windows along.
// The recovered head is the last durable head switch when present
// (falling back to fork choice), and its state root is always re-verified
// against the head block header — recovery fails loudly rather than
// resurrect a corrupt ledger.
//
// What is recovered is the journal's verified prefix: the store removed
// every checkpoint that covers more than the journal kept, and one whose
// head the replay did not store seeds nothing (crossCheckpointLocked).
func (n *Node) Recover(rec *wal.Recovery) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rec == nil {
		return nil
	}
	sw := obs.StartTimer()

	// The newest checkpoint whose state can be opened: it carries a
	// snapshot, or the disk backend holds its root. With none, the whole
	// journal is replayed from genesis.
	ck := rec.Checkpoint
	for ck != nil && ck.State == nil && (n.disk == nil || !n.disk.store.Has(ck.StateRoot)) {
		ck = ck.Older
	}
	// covered is true while the replay is still at or below the
	// checkpoint.
	covered := ck != nil
	err := rec.Replay(func(j wal.Journaled) error {
		if covered && j.Seq > ck.Seq {
			covered = false
			n.crossCheckpointLocked(ck)
		}
		b := j.Block
		if b == nil {
			// SetHead refuses a head whose block the replay did not store.
			if _, _, err := n.chain.SetHead(j.Head); err == nil {
				n.pruneStatesLocked()
				n.evictBodiesLocked()
			}
			return nil
		}
		h := b.Hash()
		if n.tree.Has(h) {
			return nil
		}
		at := blockAt(b, h)
		var err error
		if !covered {
			err = n.admitLocked(b, h, at)
		} else if err = n.verifyLocked(b, at, false); err == nil {
			err = n.storeLocked(b, h, nil)
		}
		switch {
		case errors.Is(err, state.ErrRead):
			return err // the store is failing: no prefix can be trusted to be complete
		case err != nil:
			n.metrics.BlocksRejected++
		default:
			n.metrics.RecoveredBlocks++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("node: recover: %w", err)
	}
	if covered {
		n.crossCheckpointLocked(ck)
	}
	// A checkpoint whose state could not be opened is made up for only by
	// a journal that reaches its head some other way.
	if newest := rec.Checkpoint; newest != nil && newest != ck && !n.tree.Has(newest.Head) {
		return fmt.Errorf("node: recover: checkpoint at height %d names state root %s, which the state store does not hold, and the journal does not reach its head %s without it",
			newest.Height, newest.StateRoot.Hex(), newest.Head.Short())
	}

	// Re-point the main chain: prefer the last durable head switch;
	// fall back to fork choice when it did not survive.
	head := rec.Head
	if head.IsZero() || !n.tree.Has(head) {
		tip, err := n.chooseLocked()
		if err != nil {
			return fmt.Errorf("node: recover fork choice: %w", err)
		}
		head = tip
	}
	if _, _, err := n.chain.SetHead(head); err != nil {
		return fmt.Errorf("node: recover set head: %w", err)
	}

	// Re-verify the recovered head's state root end to end.
	if head != n.tree.Genesis() {
		st, err := n.stateOfLocked(head)
		if err != nil {
			return fmt.Errorf("node: recover head state: %w", err)
		}
		hdr, _ := n.tree.Header(head)
		if root := st.Commit(); root != hdr.StateRoot {
			return fmt.Errorf("%w: recovered %s, header %s (%v)", ErrBadStateRoot, root.Short(), hdr.StateRoot.Short(), st.Err())
		}
	}
	n.pruneStatesLocked()

	n.obs.Observe(obs.StageRecover, sw.Start(), sw.Elapsed(), obs.At{Height: n.chain.Height(), N: n.metrics.RecoveredBlocks})
	return nil
}

// crossCheckpointLocked ends the covered part of a recovery, once the
// replay has passed the last record checkpoint ck covers. When the replay
// stored the checkpoint's head, and that head's header carries the
// checkpoint's height and state root, the checkpoint's state is seeded
// there, so the first post-checkpoint block finds its parent state
// without replaying history.
//
// Otherwise nothing is seeded: the head was refused (a block journaled
// under another genesis or retarget interval fails its checks) or the
// file names another chain. The blocks the replay stored rebuild their
// states from the base state, as a pruned state does.
func (n *Node) crossCheckpointLocked(ck *wal.Checkpoint) {
	if hdr, ok := n.tree.Header(ck.Head); !ok || hdr.Height != ck.Height || hdr.StateRoot != ck.StateRoot {
		return
	}
	st := ck.State
	if st == nil {
		// No snapshot: the state is the trie the store holds under the
		// root (Recover checked that it does).
		st = state.Load(ck.StateRoot, n.disk.store)
	}
	st.SetExecutor(n.cfg.Executor)
	st.CountReadErrors(&n.stateReadErrs)
	// A snapshot's state is written to the disk backend whole: a store
	// that holds its root may predate storage tries and code being kept
	// there. A failed write is counted (DiskErrors); the in-memory trie
	// serves.
	st, _ = n.seedTrieLocked(ck.Height, st, ck.State != nil)
	n.states[ck.Head] = st
}
