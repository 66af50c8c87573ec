// Package consensus defines the System-layer interfaces of the stack:
// the consensus seam, which has two halves. Following Section 2.4 of
// the paper, proof-based consensus decomposes into two pluggable
// pieces: a block-proposal algorithm (Engine — who may extend the
// chain, when, with what evidence) and a branch-selection algorithm
// (ForkChoice — which branch peers converge on). PoW, PoS, and PoET
// implement Engine; longest-chain and GHOST implement ForkChoice; any
// Engine composes with any ForkChoice, and together they deliver
// *candidate* blocks. The permissioned half (Section 2.7's ordering
// service + PBFT) is log replication: a Replica delivers *final*
// operations, in one agreed order, to its ApplyFunc. pbft.Node and
// raft.Node implement Replica.
package consensus

import (
	"errors"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/p2p"
	"dcsledger/internal/store"
	"dcsledger/internal/types"
)

// Shared engine errors, matchable with errors.Is.
var (
	ErrInvalidSeal  = errors.New("consensus: invalid seal")
	ErrNotProposer  = errors.New("consensus: node is not the proposer")
	ErrBadTimestamp = errors.New("consensus: bad block timestamp")
)

// Engine is a block-proposal algorithm: it decides when a given
// validator may extend a given parent and produces/validates the
// header evidence ("proof").
type Engine interface {
	// Name identifies the algorithm ("pow", "pos", "poet").
	Name() string
	// Prepare fills the consensus-owned header fields (e.g. difficulty)
	// of a candidate extending parent.
	Prepare(hdr *types.BlockHeader, parent *types.Block) error
	// Delay returns how long this validator must wait (virtual time,
	// measured from the moment parent became its tip) before sealing a
	// block on parent. ok=false means it may never propose on parent.
	Delay(parent *types.Block, self cryptoutil.Address) (delay time.Duration, ok bool)
	// Seal completes the block's proof (nonce, Extra). The block's
	// header must already be Prepared and its Proposer set.
	Seal(b *types.Block, parent *types.Block) error
	// VerifySeal checks a received block's proof against its parent.
	VerifySeal(b *types.Block, parent *types.Block) error
}

// ForkChoice is a branch-selection algorithm over the block tree.
type ForkChoice interface {
	// Name identifies the rule ("longest", "ghost").
	Name() string
	// Choose returns the tip of the branch all correct peers should
	// adopt.
	Choose(tree *store.BlockTree) (cryptoutil.Hash, error)
}

// Replica is one member of a log-replication group, the counterpart of
// Engine: the group agrees on an order before anything is applied, so
// what it delivers is final and there is no branch to choose. Views,
// terms, leaders and how a member starts stay on the concrete type.
type Replica interface {
	// Propose submits an operation for ordering. A member that cannot
	// take it (stopped; for raft, not the leader) says so.
	Propose(op []byte) error
	// Applied returns how many operations this replica has handed to
	// its ApplyFunc. It never decreases.
	Applied() uint64
	// HandleMessage processes one protocol message; wire it into the
	// member's p2p.Mux under the protocol's MsgPrefix.
	HandleMessage(m p2p.Message)
	// Stop halts the replica; it ignores all further traffic.
	Stop()
}

// ApplyFunc receives the operations a Replica's group agreed on, exactly
// once each, in seq order (seq starts at 1).
type ApplyFunc func(seq uint64, op []byte)
