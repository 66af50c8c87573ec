// Package bootstrap implements the two ways a new peer can join the
// network (Section 5.4's "more efficient protocol to bootstrap new
// miners"): a full download that re-executes every block from genesis,
// and fast-sync, which fetches headers plus an authenticated state
// snapshot at a recent pivot and re-executes only the tail. Experiment
// E13 compares their costs.
package bootstrap

import (
	"errors"
	"fmt"

	"dcsledger/internal/incentive"
	"dcsledger/internal/node"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
)

// Sync errors, matchable with errors.Is.
var (
	ErrRootMismatch = errors.New("bootstrap: state root mismatch")
	ErrBadChain     = errors.New("bootstrap: source chain inconsistent")
)

// Stats reports the cost of a sync.
type Stats struct {
	// Headers and Blocks downloaded.
	Headers int
	Blocks  int
	// Bytes transferred (headers + blocks + snapshot).
	Bytes int
	// TxsExecuted counts re-executed transactions.
	TxsExecuted int
}

// FullSync downloads and re-executes the source's entire main chain on
// top of the given genesis state (the network's Alloc), verifying every
// state root. It returns the reconstructed head state.
func FullSync(src *node.Node, genesisState *state.State, rewards incentive.Schedule) (*state.State, Stats, error) {
	var stats Stats
	st := genesisState.Copy()
	head := src.Chain().Height()
	for h := uint64(1); h <= head; h++ {
		b, err := mainChainBlock(src, h)
		if err != nil {
			return nil, stats, err
		}
		stats.Blocks++
		stats.Bytes += b.Size()
		stats.TxsExecuted += len(b.Txs)
		if !b.VerifyTxRoot() {
			return nil, stats, fmt.Errorf("%w: tx root at height %d", ErrBadChain, h)
		}
		if _, err := st.ApplyBlock(b, rewards.RewardAt(h)); err != nil {
			return nil, stats, fmt.Errorf("bootstrap: replay height %d: %w", h, err)
		}
		if root := st.Commit(); root != b.Header.StateRoot {
			return nil, stats, fmt.Errorf("%w at height %d", ErrRootMismatch, h)
		}
	}
	return st, stats, nil
}

// FastSync downloads only headers plus a state snapshot at the pivot
// (head − pivotLag), verifies the snapshot against the pivot header's
// state root, and re-executes just the blocks after the pivot.
func FastSync(src *node.Node, rewards incentive.Schedule, pivotLag uint64) (*state.State, Stats, error) {
	var stats Stats
	head := src.Chain().Height()
	if head == 0 {
		return nil, stats, fmt.Errorf("%w: source has no blocks to pivot on", ErrBadChain)
	}
	// The pivot must be ≥ 1: only mined headers commit a state root (the
	// genesis allocation is configuration, not chain data).
	pivot := uint64(1)
	if head > pivotLag {
		pivot = head - pivotLag
	}

	// 1. Header chain (verify linkage).
	headers := src.Chain().Headers(0, int(head)+1)
	stats.Headers = len(headers)
	for i, hd := range headers {
		stats.Bytes += len(hd.Encode())
		if i > 0 && hd.ParentHash != headers[i-1].Hash() {
			return nil, stats, fmt.Errorf("%w: header linkage at %d", ErrBadChain, hd.Height)
		}
	}

	// 2. Authenticated snapshot at the pivot.
	pivotHash, ok := src.Chain().AtHeight(pivot)
	if !ok {
		return nil, stats, fmt.Errorf("%w: no pivot block", ErrBadChain)
	}
	pivotState, ok := src.StateAt(pivotHash)
	if !ok {
		return nil, stats, fmt.Errorf("%w: source lacks pivot state", ErrBadChain)
	}
	snap, err := pivotState.EncodeSnapshot()
	if err != nil {
		return nil, stats, err
	}
	stats.Bytes += len(snap)
	st, err := state.DecodeSnapshot(snap)
	if err != nil {
		return nil, stats, err
	}
	if root := st.Commit(); root != headers[pivot].StateRoot {
		return nil, stats, fmt.Errorf("%w: snapshot vs pivot header", ErrRootMismatch)
	}

	// 3. Replay only the tail.
	for h := pivot + 1; h <= head; h++ {
		b, err := mainChainBlock(src, h)
		if err != nil {
			return nil, stats, err
		}
		stats.Blocks++
		stats.Bytes += b.Size()
		stats.TxsExecuted += len(b.Txs)
		if _, err := st.ApplyBlock(b, rewards.RewardAt(h)); err != nil {
			return nil, stats, fmt.Errorf("bootstrap: tail replay height %d: %w", h, err)
		}
		if root := st.Commit(); root != b.Header.StateRoot {
			return nil, stats, fmt.Errorf("%w at height %d", ErrRootMismatch, h)
		}
	}
	return st, stats, nil
}

func mainChainBlock(src *node.Node, h uint64) (*types.Block, error) {
	bh, ok := src.Chain().AtHeight(h)
	if !ok {
		return nil, fmt.Errorf("%w: missing height %d", ErrBadChain, h)
	}
	b, err := src.Tree().Block(bh)
	if err != nil {
		return nil, fmt.Errorf("%w: height %d: %w", ErrBadChain, h, err)
	}
	return b, nil
}
