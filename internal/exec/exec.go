// Package exec implements optimistic parallel transaction execution for
// block application. Serial execution is the default, and ROADMAP item
// 8 deletes this package once the benchmark stops importing it
// (docs/EXECUTION.md).
//
// The executor speculates a block's transactions concurrently, each lane
// on its own copy-on-write child layer of the block state with an
// attached read/write-set recorder, then merges lanes back in
// transaction-index order. A lane whose footprint conflicts with an
// earlier-indexed lane's writes (RW or WW), whose speculation failed, or
// which touched the proposer account (fees are settled invisibly at
// merge) triggers a deterministic serial replay of the remaining
// transaction suffix. The committed state root is bit-identical to
// serial ApplyBlock for every block — see docs/EXECUTION.md for the
// argument, and the Paranoid flag for the runtime assertion.
//
// Lane granularity is a run: a maximal group of consecutive same-sender
// transactions. A sender's nonce chain executes sequentially inside one
// lane, so nonce succession never shows up as a conflict (the txpool
// orders same-sender transactions contiguously for exactly this reason).
package exec

import (
	"fmt"
	"sync"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/obs"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
)

// Executor applies blocks with optimistic parallelism.
type Executor struct {
	// Workers is the number of speculation goroutines. <= 0 disables
	// speculation entirely: ApplyBlock degenerates to serial
	// state.ApplyBlock. 1 still exercises the speculate/merge machinery
	// (useful for tests) on a single lane at a time.
	Workers int
	// Paranoid re-runs every parallel block serially on a scratch layer
	// and fails if the root or receipts diverge. Debug-only: it forfeits
	// the speedup.
	Paranoid bool
}

// Stats describes how one block application went.
type Stats struct {
	Parallel    bool // whether the speculate/merge path ran
	Workers     int  // speculation width used
	Txs         int  // user transactions in the block
	Runs        int  // speculation lanes (same-sender runs)
	MergedRuns  int  // lanes committed straight from speculation
	Conflicts   int  // lanes rejected at merge (at most 1: suffix replay)
	ReplayedTxs int  // transactions re-executed serially

	SpecDur     time.Duration // summed per-lane speculation time (CPU view)
	ReplayDur   time.Duration // wall time of the serial suffix replay
	ParallelDur time.Duration // wall time of speculate + merge + replay

	// Span anchors for the exec_parallel / exec_replay trace stages.
	Start, ReplayStart time.Time
}

// SpeedupMilli estimates the parallel speedup as the ratio of speculated
// execution time (the serial-equivalent work) to wall-clock time, in
// thousandths. Returns 0 when the parallel path did not run.
func (s *Stats) SpeedupMilli() uint64 {
	if !s.Parallel || s.ParallelDur <= 0 {
		return 0
	}
	work := s.SpecDur + s.ReplayDur
	return uint64(work * 1000 / s.ParallelDur)
}

// lane is one speculation unit: a run of consecutive same-sender
// transactions executed on a private COW child layer.
type lane struct {
	txs []*types.Transaction

	serialOnly bool // needs an executor that cannot be forked
	failed     bool // speculation errored (stale reads or truly invalid)

	child    *state.State
	access   *state.Access
	fork     state.Executor // forked contract executor, nil if unused
	receipts []*state.Receipt
	fees     uint64
	dur      time.Duration
}

// ApplyBlock applies b on a fresh child layer of parent and returns the
// layer, the receipts in block order (coinbase first), and statistics.
// parent is never mutated. The result is bit-identical to
// parent.Copy().ApplyBlock(b, reward) — including whether it errors —
// regardless of Workers.
func (e *Executor) ApplyBlock(parent *state.State, b *types.Block, reward uint64) (*state.State, []*state.Receipt, *Stats, error) {
	st := parent.Copy()
	stats := &Stats{Txs: max(len(b.Txs)-1, 0), Workers: e.Workers}
	if e.Workers <= 0 || len(b.Txs) <= 1 {
		receipts, err := st.ApplyBlock(b, reward)
		if err != nil {
			return nil, nil, stats, err
		}
		return st, receipts, stats, nil
	}

	sw := obs.StartTimer()
	stats.Start = sw.Start()
	if _, err := state.CheckCoinbase(b, reward); err != nil {
		return nil, nil, stats, err
	}
	cb := b.Txs[0]
	proposer := b.Header.Proposer

	// Mirror serial ApplyBlock: mint only the subsidy before any user
	// transaction; fees flow to the proposer per merged lane.
	st.Credit(cb.To, reward)
	receipts := make([]*state.Receipt, 0, len(b.Txs))
	receipts = append(receipts, &state.Receipt{TxID: cb.ID(), OK: true})

	lanes := partition(b.Txs[1:])
	stats.Parallel = true
	stats.Runs = len(lanes)

	mainExec := st.Executor()
	forkable, _ := mainExec.(state.ForkableExecutor)
	if mainExec != nil && forkable == nil {
		// The executor keeps unshareable mutable state: any lane that
		// would drive it must be replayed serially instead.
		for _, l := range lanes {
			l.serialOnly = hasExecTx(l.txs)
		}
	}

	e.speculate(st, lanes, forkable)

	// Merge in transaction-index order against the cumulative write set
	// of everything already committed. The first rejected lane ends the
	// optimistic phase; the whole remaining suffix replays serially.
	wAcc := make(map[cryptoutil.Address]struct{})
	wSlot := make(map[state.SlotKey]struct{})
	replayFrom := -1
	for i, l := range lanes {
		if l.serialOnly || l.failed || conflicts(l.access, wAcc, wSlot, proposer) {
			replayFrom = i
			stats.Conflicts++
			break
		}
		st.Absorb(l.child)
		if l.fork != nil {
			forkable.Absorb(l.fork)
		}
		st.Credit(proposer, l.fees)
		receipts = append(receipts, l.receipts...)
		for a := range l.access.WriteAccounts {
			wAcc[a] = struct{}{}
		}
		for k := range l.access.WriteSlots {
			wSlot[k] = struct{}{}
		}
		stats.MergedRuns++
		stats.SpecDur += l.dur
	}

	if replayFrom >= 0 {
		rsw := obs.StartTimer()
		stats.ReplayStart = rsw.Start()
		for _, l := range lanes[replayFrom:] {
			for _, tx := range l.txs {
				rec, err := st.ApplyTx(tx, proposer)
				if err != nil {
					return nil, nil, stats, fmt.Errorf("exec: replay: %w", err)
				}
				receipts = append(receipts, rec)
				stats.ReplayedTxs++
			}
		}
		stats.ReplayDur = rsw.Elapsed()
	}
	stats.ParallelDur = sw.Elapsed()
	// The block layer's own reads (coinbase and fee credits) are not
	// inside any ApplyTx: a failed one must not pass for an absent account.
	if err := st.Err(); err != nil {
		return nil, nil, stats, err
	}

	if e.Paranoid {
		if err := e.paranoidCheck(parent, b, reward, st, receipts, mainExec, forkable); err != nil {
			return nil, nil, stats, err
		}
	}
	return st, receipts, stats, nil
}

// speculate runs every non-serial-only lane on Workers goroutines. The
// block layer st is frozen for the duration: lanes only read through it.
// Worker scheduling cannot influence the outcome — each lane's result is
// a pure function of st and its own transactions, and the merge that
// follows the barrier runs in lane-index order.
func (e *Executor) speculate(st *state.State, lanes []*lane, forkable state.ForkableExecutor) {
	workers := min(e.Workers, len(lanes))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runLane(st, lanes[i], forkable)
			}
		}()
	}
	for i, l := range lanes {
		if !l.serialOnly {
			idx <- i
		}
	}
	close(idx)
	wg.Wait()
}

// runLane executes one run of same-sender transactions on a tracked COW
// child of st with fees deferred. Any error abandons the lane: the merge
// loop will replay it serially, where the same error either reproduces
// (invalid block) or vanishes (it was an artifact of stale reads).
func runLane(st *state.State, l *lane, forkable state.ForkableExecutor) {
	sw := obs.StartTimer()
	child := st.Copy()
	l.access = state.NewAccess()
	child.Track(l.access)
	if forkable != nil {
		l.fork = forkable.Fork()
		child.SetExecutor(l.fork)
	}
	for _, tx := range l.txs {
		rec, err := child.ApplyTxDeferredFee(tx)
		if err != nil {
			l.failed = true
			break
		}
		l.receipts = append(l.receipts, rec)
		l.fees += tx.Fee
	}
	l.child = child
	l.dur = sw.Elapsed()
}

// partition splits the user transactions into maximal runs of
// consecutive same-sender transactions, preserving block order.
func partition(txs []*types.Transaction) []*lane {
	var lanes []*lane
	for i, tx := range txs {
		if i > 0 && tx.From == txs[i-1].From {
			last := lanes[len(lanes)-1]
			last.txs = append(last.txs, tx)
			continue
		}
		lanes = append(lanes, &lane{txs: txs[i : i+1 : i+1]})
	}
	return lanes
}

// conflicts reports whether the lane's footprint overlaps the cumulative
// write set of already-merged lanes (RW/WW against lower-indexed
// transactions) or touches the proposer account, whose pending fee
// credits make every read of it stale by construction.
func conflicts(a *state.Access, wAcc map[cryptoutil.Address]struct{}, wSlot map[state.SlotKey]struct{}, proposer cryptoutil.Address) bool {
	if a.Touches(proposer) {
		return true
	}
	for addr := range a.ReadAccounts {
		if _, ok := wAcc[addr]; ok {
			return true //dcslint:ignore determinism set-intersection emptiness is iteration-order independent
		}
	}
	for addr := range a.WriteAccounts {
		if _, ok := wAcc[addr]; ok {
			return true //dcslint:ignore determinism set-intersection emptiness is iteration-order independent
		}
	}
	for k := range a.ReadSlots {
		if _, ok := wSlot[k]; ok {
			return true //dcslint:ignore determinism set-intersection emptiness is iteration-order independent
		}
	}
	for k := range a.WriteSlots {
		if _, ok := wSlot[k]; ok {
			return true //dcslint:ignore determinism set-intersection emptiness is iteration-order independent
		}
	}
	return false
}

func hasExecTx(txs []*types.Transaction) bool {
	for _, tx := range txs {
		if tx.Kind == types.TxDeploy || tx.Kind == types.TxInvoke {
			return true
		}
	}
	return false
}

// paranoidCheck re-applies the block serially on a scratch layer and
// fails on any divergence in root or receipts. When the node's executor
// is non-forkable and the block carries contract transactions, the check
// is skipped: double-driving such an executor would duplicate its side
// effects (those blocks took the serial replay path anyway).
func (e *Executor) paranoidCheck(parent *state.State, b *types.Block, reward uint64, got *state.State, gotRecs []*state.Receipt, mainExec state.Executor, forkable state.ForkableExecutor) error {
	chk := parent.Copy()
	if forkable != nil {
		chk.SetExecutor(forkable.Fork())
	} else if mainExec != nil && hasExecTx(b.Txs) {
		return nil
	}
	wantRecs, err := chk.ApplyBlock(b, reward)
	if err != nil {
		return fmt.Errorf("exec: paranoid: serial re-run rejected accepted block: %w", err)
	}
	if err := ReceiptsEqual(gotRecs, wantRecs); err != nil {
		return fmt.Errorf("exec: paranoid: %w", err)
	}
	if gr, wr := got.Commit(), chk.Commit(); gr != wr {
		return fmt.Errorf("exec: paranoid: parallel root %s != serial root %s", gr.Short(), wr.Short())
	}
	return nil
}

// ReceiptsEqual reports (as an error carrying the first difference)
// whether two receipt sequences are identical field for field.
func ReceiptsEqual(got, want []*state.Receipt) error {
	if len(got) != len(want) {
		return fmt.Errorf("receipt count %d != %d", len(got), len(want))
	}
	for i := range got {
		if *got[i] != *want[i] {
			return fmt.Errorf("receipt %d: %+v != %+v", i, *got[i], *want[i])
		}
	}
	return nil
}
