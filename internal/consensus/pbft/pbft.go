// Package pbft implements Practical Byzantine Fault Tolerance: the
// three-phase (pre-prepare / prepare / commit) protocol the paper's
// Hyperledger discussion assigns to committing peers (Section 2.4). A
// cluster of n replicas executes client operations in a single agreed
// order while tolerating f = ⌊(n−1)/3⌋ Byzantine members, with view
// changes to replace a faulty primary.
//
// Replica identity is provided by the transport (the simulated network
// cannot forge From); the classic protocol's per-message signatures are
// therefore subsumed by the transport layer. The view change is the
// simplified variant without prepared-certificate transfer or
// checkpointing: pending operations are renumbered and re-proposed in
// the new view, which is sound when the cluster quiesces around the
// view change — the regime the ordering workload and the E14 fault
// experiments operate in.
package pbft

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/obs"
	"dcsledger/internal/p2p"
	"dcsledger/internal/simclock"
)

// MsgPrefix routes pbft traffic through a p2p.Mux.
const MsgPrefix = "pbft/"

// Package errors, matchable with errors.Is.
var (
	ErrStopped = errors.New("pbft: node stopped")
	ErrTooFew  = errors.New("pbft: cluster needs at least 4 replicas to tolerate a fault")
)

// Config tunes the protocol.
type Config struct {
	// ViewTimeout is how long a replica waits for a pending request to
	// execute before suspecting the primary and starting a view change.
	ViewTimeout time.Duration
}

// Protocol messages travel in the binary wire format defined in
// codec.go; field order there matches declaration order here.

type prePrepare struct {
	View   uint64
	Seq    uint64
	Digest cryptoutil.Hash
	Op     []byte
}

type phaseVote struct {
	View   uint64
	Seq    uint64
	Digest cryptoutil.Hash
}

type viewChange struct {
	NewView uint64
}

type newView struct {
	View uint64
	// StartSeq is the sequence number the new primary resumes from;
	// replicas align their execution cursors to it so renumbered
	// proposals execute without waiting on abandoned old-view slots.
	StartSeq uint64
}

type request struct {
	Op []byte
}

// instance is the agreement state for one (view, seq) slot.
type instance struct {
	digest     cryptoutil.Hash
	op         []byte
	prePrep    bool
	prepares   map[p2p.NodeID]bool
	commits    map[p2p.NodeID]bool
	committed  bool
	executed   bool
	commitSent bool
	startedAt  time.Time // clock time this replica saw the pre-prepare
}

// Node is one PBFT replica.
type Node struct {
	mu sync.Mutex

	id       p2p.NodeID
	replicas []p2p.NodeID // all replicas, fixed order; index = replica number
	tr       p2p.Transport
	clock    simclock.Clock
	cfg      Config
	apply    consensus.ApplyFunc

	f               int
	view            uint64
	nextSeq         uint64 // primary's next sequence to assign
	maxSeq          uint64 // highest sequence seen in any view
	lastExec        uint64
	slots           map[uint64]*instance // by seq (current view)
	pending         map[cryptoutil.Hash][]byte
	vcVotes         map[uint64]map[p2p.NodeID]bool
	vcTimer         *simclock.Timer
	executedDigests map[cryptoutil.Hash]bool
	executedQ       []cryptoutil.Hash // FIFO of live dedup digests, oldest at executedHead
	executedHead    int
	stopped         bool

	executedOps uint64
	obs         obs.Observer
}

var _ consensus.Replica = (*Node)(nil)

// NewNode creates a PBFT replica. replicas must list the full cluster in
// the same order at every member and include id.
func NewNode(id p2p.NodeID, replicas []p2p.NodeID, tr p2p.Transport, clock simclock.Clock, cfg Config, apply consensus.ApplyFunc) (*Node, error) {
	if len(replicas) < 4 {
		return nil, fmt.Errorf("%w: got %d", ErrTooFew, len(replicas))
	}
	if cfg.ViewTimeout <= 0 {
		cfg.ViewTimeout = 2 * time.Second
	}
	found := false
	for _, r := range replicas {
		if r == id {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("pbft: id %s not in replica set", id)
	}
	return &Node{
		id:              id,
		replicas:        append([]p2p.NodeID(nil), replicas...),
		tr:              tr,
		clock:           clock,
		cfg:             cfg,
		apply:           apply,
		f:               (len(replicas) - 1) / 3,
		slots:           make(map[uint64]*instance),
		pending:         make(map[cryptoutil.Hash][]byte),
		vcVotes:         make(map[uint64]map[p2p.NodeID]bool),
		executedDigests: make(map[cryptoutil.Hash]bool),
	}, nil
}

// F returns the number of Byzantine faults the cluster tolerates.
func (n *Node) F() int { return n.f }

// SetTracer wires the pipeline event tracer: each operation this
// replica executes records a pbft_round span whose duration is the
// (clock) time from this replica's pre-prepare to execution — the
// three-phase round latency. Call before protocol traffic starts.
func (n *Node) SetTracer(tr *obs.Tracer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.obs = obs.Observer{Peer: string(n.id), Tracer: tr}
}

// View returns the current view number.
func (n *Node) View() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view
}

// Primary returns the current primary replica.
func (n *Node) Primary() p2p.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primaryLocked(n.view)
}

// Applied returns how many operations this replica has executed.
func (n *Node) Applied() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.executedOps
}

// Stop halts the replica.
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopped = true
	n.vcTimer.Stop()
}

// Propose submits an operation. The request is broadcast to the whole
// cluster (as PBFT clients do) so every replica arms its view-change
// timer; the primary assigns it a sequence number.
func (n *Node) Propose(op []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return ErrStopped
	}
	digest := opDigest(op)
	n.pending[digest] = op
	n.armViewChangeTimerLocked()
	n.broadcast("request", request{Op: op})
	if n.primaryLocked(n.view) == n.id {
		n.assignLocked(op)
	}
	return nil
}

// HandleMessage processes one pbft message; wire under MsgPrefix.
func (n *Node) HandleMessage(m p2p.Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return
	}
	if !n.isReplica(m.From) && m.Type != MsgPrefix+"request" {
		return // protocol messages only from cluster members
	}
	switch m.Type {
	case MsgPrefix + "request":
		if req, err := decodeRequest(m.Data); err == nil {
			digest := opDigest(req.Op)
			if n.executedDigests[digest] {
				return
			}
			if _, known := n.pending[digest]; !known {
				n.pending[digest] = req.Op
				n.armViewChangeTimerLocked()
			}
			if n.primaryLocked(n.view) == n.id {
				n.assignLocked(req.Op)
			}
		}
	case MsgPrefix + "pre-prepare":
		if pp, err := decodePrePrepare(m.Data); err == nil {
			n.onPrePrepare(m.From, pp)
		}
	case MsgPrefix + "prepare":
		if v, err := decodePhaseVote(m.Data); err == nil {
			n.onPrepare(m.From, v)
		}
	case MsgPrefix + "commit":
		if v, err := decodePhaseVote(m.Data); err == nil {
			n.onCommit(m.From, v)
		}
	case MsgPrefix + "view-change":
		if vc, err := decodeViewChange(m.Data); err == nil {
			n.onViewChange(m.From, vc)
		}
	case MsgPrefix + "new-view":
		if nv, err := decodeNewView(m.Data); err == nil {
			n.onNewView(m.From, nv)
		}
	}
}

func (n *Node) primaryLocked(view uint64) p2p.NodeID {
	return n.replicas[int(view)%len(n.replicas)]
}

func (n *Node) isReplica(id p2p.NodeID) bool {
	for _, r := range n.replicas {
		if r == id {
			return true
		}
	}
	return false
}

func (n *Node) quorum() int { return 2*n.f + 1 }

func (n *Node) send(to p2p.NodeID, typ string, v wireMsg) {
	_ = n.tr.Send(to, p2p.Message{Type: MsgPrefix + typ, Data: v.encode()})
}

func (n *Node) broadcast(typ string, v wireMsg) {
	for _, r := range n.replicas {
		if r == n.id {
			continue
		}
		n.send(r, typ, v)
	}
}

// assignLocked runs at the primary: assigns the next sequence number and
// starts the three-phase protocol.
func (n *Node) assignLocked(op []byte) {
	digest := opDigest(op)
	// Skip if already assigned in this view.
	for _, inst := range n.slots {
		if inst.digest == digest {
			return
		}
	}
	n.nextSeq++
	seq := n.nextSeq
	if seq > n.maxSeq {
		n.maxSeq = seq
	}
	pp := prePrepare{View: n.view, Seq: seq, Digest: digest, Op: op}
	inst := n.slot(seq)
	inst.digest = digest
	inst.op = op
	inst.prePrep = true
	inst.startedAt = n.clock.Now()
	inst.prepares[n.id] = true
	n.broadcast("pre-prepare", pp)
	// The primary's own prepare is implicit in the pre-prepare; peers
	// count it. Check quorum in case f=0 thresholds are already met.
	n.maybePrepareQuorumLocked(seq)
}

func (n *Node) slot(seq uint64) *instance {
	inst, ok := n.slots[seq]
	if !ok {
		inst = &instance{
			prepares: make(map[p2p.NodeID]bool),
			commits:  make(map[p2p.NodeID]bool),
		}
		n.slots[seq] = inst
	}
	return inst
}

func (n *Node) onPrePrepare(from p2p.NodeID, pp prePrepare) {
	if pp.View != n.view || from != n.primaryLocked(pp.View) {
		return
	}
	if opDigest(pp.Op) != pp.Digest {
		return // equivocating or corrupt primary
	}
	inst := n.slot(pp.Seq)
	if inst.prePrep && inst.digest != pp.Digest {
		// Primary equivocation for this slot: suspect it.
		n.startViewChangeLocked(n.view + 1)
		return
	}
	if inst.prePrep {
		return
	}
	inst.prePrep = true
	inst.digest = pp.Digest
	inst.op = pp.Op
	inst.startedAt = n.clock.Now()
	if pp.Seq > n.maxSeq {
		n.maxSeq = pp.Seq
	}
	if _, ok := n.pending[pp.Digest]; !ok {
		n.pending[pp.Digest] = pp.Op
	}
	n.armViewChangeTimerLocked()
	inst.prepares[from] = true // primary's implicit prepare
	inst.prepares[n.id] = true
	n.broadcast("prepare", phaseVote{View: pp.View, Seq: pp.Seq, Digest: pp.Digest})
	n.maybePrepareQuorumLocked(pp.Seq)
}

func (n *Node) onPrepare(from p2p.NodeID, v phaseVote) {
	if v.View != n.view {
		return
	}
	inst := n.slot(v.Seq)
	if inst.prePrep && inst.digest != v.Digest {
		return
	}
	inst.prepares[from] = true
	n.maybePrepareQuorumLocked(v.Seq)
}

func (n *Node) maybePrepareQuorumLocked(seq uint64) {
	inst := n.slots[seq]
	if inst == nil || !inst.prePrep || inst.commitSent {
		return
	}
	if len(inst.prepares) < n.quorum() {
		return
	}
	inst.commitSent = true
	inst.commits[n.id] = true
	n.broadcast("commit", phaseVote{View: n.view, Seq: seq, Digest: inst.digest})
	n.maybeCommitQuorumLocked(seq)
}

func (n *Node) onCommit(from p2p.NodeID, v phaseVote) {
	if v.View != n.view {
		return
	}
	inst := n.slot(v.Seq)
	if inst.prePrep && inst.digest != v.Digest {
		return
	}
	inst.commits[from] = true
	n.maybeCommitQuorumLocked(v.Seq)
}

func (n *Node) maybeCommitQuorumLocked(seq uint64) {
	inst := n.slots[seq]
	if inst == nil || !inst.commitSent || inst.committed {
		return
	}
	if len(inst.commits) < n.quorum() {
		return
	}
	inst.committed = true
	n.executeReadyLocked()
}

// executeReadyLocked applies committed operations strictly in sequence
// order.
func (n *Node) executeReadyLocked() {
	for {
		inst := n.slots[n.lastExec+1]
		if inst == nil || !inst.committed || inst.executed {
			break
		}
		n.lastExec++
		inst.executed = true
		delete(n.pending, inst.digest)
		if !n.executedDigests[inst.digest] {
			n.executedDigests[inst.digest] = true
			n.recordExecutedLocked(inst.digest)
			n.executedOps++
			if !inst.startedAt.IsZero() {
				n.obs.Observe(obs.StagePBFTRound, inst.startedAt, n.clock.Now().Sub(inst.startedAt),
					obs.At{Height: n.lastExec, N: uint64(len(inst.op))})
			}
			if n.apply != nil {
				n.apply(n.lastExec, inst.op)
			}
		}
	}
	if len(n.pending) == 0 {
		n.vcTimer.Stop()
	} else {
		n.armViewChangeTimerLocked()
	}
}

// executedDedupCap bounds the replay-suppression set. Eviction is FIFO
// in *execution* order, which every correct replica observes
// identically, so all replicas forget the same digests at the same
// point — the bound cannot fork the ledger. A client replaying a
// request older than the cap window re-executes it, the same exposure
// production PBFT accepts when checkpoint garbage-collection discards
// old request logs. At 32 bytes per digest this is ~2 MiB of state.
const executedDedupCap = 65536

// maxTrackedViewAhead bounds how far above the current view this
// replica tracks view-change votes: vcVotes holds at most this many
// views, each with at most one vote per replica.
const maxTrackedViewAhead = 128

// recordExecutedLocked appends a digest to the dedup FIFO and evicts
// past the cap, compacting the queue so its backing array stays
// O(executedDedupCap) rather than growing with total throughput.
func (n *Node) recordExecutedLocked(digest cryptoutil.Hash) {
	n.executedQ = append(n.executedQ, digest)
	for len(n.executedDigests) > executedDedupCap {
		delete(n.executedDigests, n.executedQ[n.executedHead])
		n.executedHead++
	}
	if n.executedHead > executedDedupCap {
		n.executedQ = append(n.executedQ[:0], n.executedQ[n.executedHead:]...)
		n.executedHead = 0
	}
}

// --- view change ---

func (n *Node) armViewChangeTimerLocked() {
	if len(n.pending) == 0 {
		return
	}
	n.vcTimer.Stop()
	target := n.view + 1
	n.vcTimer = n.clock.After(n.cfg.ViewTimeout, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.stopped || len(n.pending) == 0 {
			return
		}
		n.startViewChangeLocked(target)
	})
}

func (n *Node) startViewChangeLocked(newViewNum uint64) {
	if newViewNum <= n.view {
		return
	}
	votes := n.vcVotesFor(newViewNum)
	if votes[n.id] {
		return
	}
	votes[n.id] = true
	n.broadcast("view-change", viewChange{NewView: newViewNum})
	n.maybeEnterViewLocked(newViewNum)
}

func (n *Node) vcVotesFor(v uint64) map[p2p.NodeID]bool {
	m, ok := n.vcVotes[v]
	if !ok {
		m = make(map[p2p.NodeID]bool)
		n.vcVotes[v] = m
	}
	return m
}

func (n *Node) onViewChange(from p2p.NodeID, vc viewChange) {
	if vc.NewView <= n.view {
		return
	}
	// Track votes only within a bounded window above the current view:
	// honest replicas propose at most their view+1, so a vote far ahead
	// is either Byzantine spam (each fresh view number would otherwise
	// allocate a vote map forever) or evidence this replica is lagging —
	// and a lagging replica catches up via the primary's new-view
	// message, not via vote accumulation.
	if vc.NewView > n.view+maxTrackedViewAhead {
		return
	}
	votes := n.vcVotesFor(vc.NewView)
	votes[from] = true
	// Join the view change once f+1 members suspect the primary (we
	// cannot all be wrong).
	if len(votes) > n.f && !votes[n.id] {
		n.startViewChangeLocked(vc.NewView)
		return
	}
	n.maybeEnterViewLocked(vc.NewView)
}

func (n *Node) maybeEnterViewLocked(v uint64) {
	votes := n.vcVotes[v]
	if len(votes) < n.quorum() || v <= n.view {
		return
	}
	n.enterViewLocked(v)
	if n.primaryLocked(v) == n.id {
		n.broadcast("new-view", newView{View: v, StartSeq: n.nextSeq})
		n.alignCursorLocked(n.nextSeq)
		// Re-propose everything still pending, in digest order: map
		// iteration order would assign sequence numbers differently
		// run-to-run, breaking the simulation determinism contract.
		for _, d := range n.sortedPendingLocked() {
			n.assignLocked(n.pending[d])
		}
	}
}

// sortedPendingLocked returns the pending digests in byte order — the
// canonical traversal for anything that turns the pending set into
// ordered protocol actions.
func (n *Node) sortedPendingLocked() []cryptoutil.Hash {
	out := make([]cryptoutil.Hash, 0, len(n.pending))
	for d := range n.pending {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i][:], out[j][:]) < 0
	})
	return out
}

func (n *Node) onNewView(from p2p.NodeID, nv newView) {
	if nv.View < n.view || from != n.primaryLocked(nv.View) {
		return
	}
	if nv.View > n.view {
		n.enterViewLocked(nv.View)
	}
	if nv.StartSeq > n.nextSeq {
		n.nextSeq = nv.StartSeq
	}
	if nv.StartSeq > n.maxSeq {
		n.maxSeq = nv.StartSeq
	}
	n.alignCursorLocked(nv.StartSeq)
}

// alignCursorLocked jumps the execution cursor over sequence numbers
// abandoned by a view change (no committed operation can occupy them
// under the quiescence assumption documented above).
func (n *Node) alignCursorLocked(startSeq uint64) {
	if startSeq > n.lastExec {
		n.lastExec = startSeq
	}
	n.executeReadyLocked()
}

func (n *Node) enterViewLocked(v uint64) {
	n.view = v
	// Votes for views at or below the one just entered can never be
	// consulted again (onViewChange rejects NewView <= view): drop them
	// so a peer spamming view-change messages cannot grow this map
	// without bound.
	for past := range n.vcVotes {
		if past <= v {
			delete(n.vcVotes, past)
		}
	}
	// Discard un-executed per-view state; executed ops are final.
	// Numbering continues above every sequence this replica has seen so
	// a renumbered op can never collide with an executed slot.
	n.slots = make(map[uint64]*instance)
	n.nextSeq = max(n.lastExec, n.maxSeq)
	n.vcTimer.Stop()
	if len(n.pending) > 0 {
		n.armViewChangeTimerLocked()
		// Hand pending ops to the new primary, in digest order (see
		// sortedPendingLocked).
		if n.primaryLocked(v) != n.id {
			for _, d := range n.sortedPendingLocked() {
				n.send(n.primaryLocked(v), "request", request{Op: n.pending[d]})
			}
		}
	}
}

func opDigest(op []byte) cryptoutil.Hash {
	return cryptoutil.HashBytes([]byte("pbft/op"), op)
}
