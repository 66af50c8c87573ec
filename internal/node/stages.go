// The stages a block passes on its way into the ledger — verify, execute,
// store, journal — one function each, and connect, which runs all four
// (the journal's append at the end of the round, once the fork choice has
// answered).
// Which stages a block runs is the caller's choice, written where it calls
// (produceBlock, Recover and stateOfLocked run fewer: the table is in
// docs/ARCHITECTURE.md). Every stage observes itself; callers hold n.mu.
package node

import (
	"fmt"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/obs"
	"dcsledger/internal/state"
	"dcsledger/internal/store"
	"dcsledger/internal/types"
)

// blockAt identifies block b, whose hash is h, to the observer: what
// every block-scoped stage is observed at (N = the block's transactions
// unless the stage counts something else).
func blockAt(b *types.Block, h cryptoutil.Hash) obs.At {
	return obs.At{Height: b.Header.Height, N: uint64(len(b.Txs)), Block: h.Short()}
}

// verifyLocked is the verify stage: what can be checked of b without a
// state — the transaction root, the signatures (fanned out across CPU
// cores; a transaction the block adopted from the pool was verified on
// admission and costs nothing here) and the seal against the parent
// block. A caller for whom a verified state root vouches for the
// signatures waives them (sigs false).
func (n *Node) verifyLocked(b *types.Block, at obs.At, sigs bool) error {
	sw := obs.StartTimer()
	parent, ok := n.tree.Get(b.Header.ParentHash)
	if !ok {
		// handleBlockFrom buffers orphans, but recovery replays the journal
		// directly and a damaged log can orphan a record.
		return fmt.Errorf("node: %w", store.ErrUnknownParent)
	}
	if !b.VerifyTxRoot() {
		return ErrBadTxRoot
	}
	if sigs {
		if err := types.VerifyBatch(b.Txs); err != nil {
			return fmt.Errorf("node: %w", err)
		}
	}
	if err := n.cfg.Engine.VerifySeal(b, parent); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	n.obs.Observe(obs.StageBlockVerify, sw.Start(), sw.Elapsed(), at)
	return nil
}

// executeLocked is the execute stage: b's state transition on a fresh
// child layer of parentState through the node's executor — optimistic
// parallel when ExecWorkers > 0, serial otherwise, bit-identical either
// way — committed, and required to land on the root b's header names.
func (n *Node) executeLocked(parentState *state.State, b *types.Block, at obs.At) (*state.State, error) {
	sw := obs.StartTimer()
	n.setExecutorTime(b.Header.Time)
	st, _, stats, err := n.exec.ApplyBlock(parentState, b, n.cfg.Rewards.RewardAt(b.Header.Height))
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	if stats.Parallel {
		// One parallel block application: the exec_parallel span (speculation
		// + merge + replay), the exec_replay span when a conflict forced a
		// serial suffix, and the executor counters.
		n.metrics.ExecParallelBlocks++
		n.metrics.ExecConflicts += uint64(stats.Conflicts)
		n.metrics.ExecReplayedTxs += uint64(stats.ReplayedTxs)
		if s := stats.SpeedupMilli(); s > 0 {
			n.metrics.ExecSpeedupMilli = s
		}
		n.obs.Observe(obs.StageExecParallel, stats.Start, stats.ParallelDur, obs.At{Height: b.Header.Height, N: uint64(stats.Txs)})
		if stats.ReplayedTxs > 0 {
			n.obs.Observe(obs.StageExecReplay, stats.ReplayStart, stats.ReplayDur, obs.At{Height: b.Header.Height, N: uint64(stats.ReplayedTxs)})
		}
	}
	swCommit := obs.StartTimer()
	root := st.Commit()
	commitDur := swCommit.Elapsed()
	if err := st.Err(); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	n.obs.Observe(obs.StageStateCommit, swCommit.Start(), commitDur, n.commitAt(st, at))
	if root != b.Header.StateRoot {
		return nil, fmt.Errorf("%w: computed %s, header %s", ErrBadStateRoot, root.Short(), b.Header.StateRoot.Short())
	}
	n.obs.Observe(obs.StageStateApply, sw.Start(), sw.Elapsed(), at)
	return st, nil
}

// commitAt is at as a state_commit counts it: N = the account leaves the
// block wrote into st, worked out only when someone is tracing.
func (n *Node) commitAt(st *state.State, at obs.At) obs.At {
	at.N = 0
	if n.obs.Tracer != nil {
		at.N = uint64(len(st.DirtyAddresses()))
	}
	return at
}

// storeLocked is the store stage: b, whose hash is h, joins the block
// tree — which checks its linkage: a known parent one lower, not a
// duplicate — and st, its post-state, the retained states. A block stored
// without a state (st nil: recovery below a checkpoint, whose root vouches
// for it) was not executed here and is not counted as accepted.
func (n *Node) storeLocked(b *types.Block, h cryptoutil.Hash, st *state.State) error {
	if err := n.tree.Add(b); err != nil {
		return err
	}
	// The block arrived, however it got here: any in-flight fetch for
	// it is satisfied (msgBlock replies and gossip arrivals alike).
	delete(n.requested, h)
	if st != nil {
		n.states[h] = st
		n.tries = append(n.tries, trieHolder{st: st, height: b.Header.Height})
		n.metrics.BlocksAccepted++
	}
	return nil
}

// journalLocked is the journal stage: one append to the durable store — a
// freshly stored block, a block and the head switch to it, or a head
// switch alone — observed as wal_append. The
// append is the commit point of what it records, so it is ordered under
// the node lock with the tree/state mutation it makes durable. A failed
// append is counted (the store latches failed and refuses further
// writes); the node keeps serving from memory — the operator sees
// node_wal_append_errors_total and restarts to recover the durable
// prefix, exactly what a crashed process would do.
func (n *Node) journalLocked(at obs.At, appendRecord func() error) {
	if n.cfg.Durable == nil {
		return
	}
	sw := obs.StartTimer()
	if err := appendRecord(); err != nil {
		n.metrics.WALAppendErrors++
		return
	}
	n.obs.Observe(obs.StageWALAppend, sw.Start(), sw.Elapsed(), at)
}

// unjournaled is a block the store stage took whose journal stage waits
// for the fork choice: the last block a round connects.
type unjournaled struct {
	b  *types.Block
	h  cryptoutil.Hash
	at obs.At
}

// journalBlockLocked hands the journal stage b, whose hash is h, a block
// the store stage just took. The block its round connected before it, if
// any, is journaled now, a record of its own; b waits for the fork choice
// (journalRoundLocked), so that it and the head switch to it can be one
// record.
func (n *Node) journalBlockLocked(b *types.Block, h cryptoutil.Hash, at obs.At) {
	n.journalRoundLocked(cryptoutil.ZeroHash, false)
	n.unjournaled = unjournaled{b, h, at}
}

// journalRoundLocked ends a round of connects once the fork choice has
// answered tip, moved being whether the head moved to it: the block the
// round connected last is journaled with the head switch when it is the
// new tip, else on its own, then the head switch, if any, to a block
// journaled before.
func (n *Node) journalRoundLocked(tip cryptoutil.Hash, moved bool) {
	u := n.unjournaled
	n.unjournaled = unjournaled{}
	switch {
	case u.b != nil && moved && u.h == tip:
		n.journalLocked(u.at, func() error { return n.cfg.Durable.LogHeadBlock(u.b) })
		return
	case u.b != nil:
		n.journalLocked(u.at, func() error { return n.cfg.Durable.LogBlock(u.b) })
	}
	if moved {
		n.journalLocked(obs.At{}, func() error { return n.cfg.Durable.LogHead(tip) })
	}
}

// admitLocked runs verify, execute and store on a block built elsewhere;
// its parent's state is rebuilt by replay if it was pruned.
func (n *Node) admitLocked(b *types.Block, h cryptoutil.Hash, at obs.At) error {
	if err := n.verifyLocked(b, at, true); err != nil {
		return err
	}
	parentState, err := n.stateOfLocked(b.Header.ParentHash)
	if err != nil {
		return fmt.Errorf("node: no state for parent %s: %w", b.Header.ParentHash.Short(), err)
	}
	st, err := n.executeLocked(parentState, b, at)
	if err != nil {
		return err
	}
	return n.storeLocked(b, h, st)
}

// connect runs verify, execute and store on a gossiped, fetched or
// adopted block, hands it to the journal stage, and observes the whole as
// block_connect: the gossip-receipt→connected leg of the pipeline, for a
// block that made it. The append itself is not in the span when the block
// is the round's last: it waits for the fork choice (journalBlockLocked).
func (n *Node) connect(b *types.Block, h cryptoutil.Hash) error {
	sw := obs.StartTimer()
	at := blockAt(b, h)
	if err := n.admitLocked(b, h, at); err != nil {
		return err
	}
	n.journalBlockLocked(b, h, at)
	n.obs.Observe(obs.StageBlockConnect, sw.Start(), sw.Elapsed(), at)
	return nil
}
