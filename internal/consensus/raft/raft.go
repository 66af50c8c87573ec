// Package raft implements a minimal Raft consensus node: randomized
// leader election, log replication, and commitment. It is the
// "distributed ordering service with periodic leader election" of the
// paper's Hyperledger discussion (Section 2.4): the ordering layer uses
// it to replicate transaction batches across orderer nodes so ordering
// survives orderer failure.
//
// The implementation follows the Raft paper's Figure 2 rules; it omits
// snapshots and membership change, which the ordering workload does not
// need.
package raft

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/p2p"
	"dcsledger/internal/simclock"
)

// MsgPrefix routes raft traffic through a p2p.Mux.
const MsgPrefix = "raft/"

// Package errors, matchable with errors.Is.
var (
	ErrNotLeader = errors.New("raft: not the leader")
	ErrStopped   = errors.New("raft: node stopped")
)

// Role is a node's current Raft role.
type Role int

// Raft roles.
const (
	Follower Role = iota + 1
	Candidate
	Leader
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Entry is one replicated log record.
type Entry struct {
	Term uint64
	Data []byte
}

// Config tunes timing.
type Config struct {
	// ElectionTimeout is the base follower timeout; actual timeouts are
	// uniform in [ElectionTimeout, 2*ElectionTimeout).
	ElectionTimeout time.Duration
	// HeartbeatInterval is the leader's append/heartbeat period; it
	// must be well under ElectionTimeout.
	HeartbeatInterval time.Duration
}

// Protocol messages travel in the binary wire format defined in
// codec.go.

type voteReq struct {
	Term         uint64
	Candidate    string
	LastLogIndex uint64
	LastLogTerm  uint64
}

type voteResp struct {
	Term    uint64
	Granted bool
}

type appendReq struct {
	Term         uint64
	Leader       string
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	LeaderCommit uint64
}

type appendResp struct {
	Term       uint64
	Success    bool
	MatchIndex uint64
}

// Node is one Raft participant.
type Node struct {
	mu sync.Mutex

	id    p2p.NodeID
	peers []p2p.NodeID
	tr    p2p.Transport
	clock simclock.Clock
	rng   *rand.Rand
	cfg   Config
	apply consensus.ApplyFunc

	role        Role
	currentTerm uint64
	votedFor    p2p.NodeID
	leader      p2p.NodeID
	log         []Entry // 1-based indexing: log[0] unused sentinel
	commitIndex uint64
	lastApplied uint64
	votes       map[p2p.NodeID]bool
	nextIndex   map[p2p.NodeID]uint64
	matchIndex  map[p2p.NodeID]uint64

	electionTimer  *simclock.Timer
	heartbeatTimer *simclock.Timer
	stopped        bool
}

var _ consensus.Replica = (*Node)(nil)

// NewNode creates a Raft node. peers lists all cluster members except
// self. apply may be nil.
func NewNode(id p2p.NodeID, peers []p2p.NodeID, tr p2p.Transport, clock simclock.Clock, rng *rand.Rand, cfg Config, apply consensus.ApplyFunc) *Node {
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 500 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = cfg.ElectionTimeout / 5
	}
	return &Node{
		id:    id,
		peers: append([]p2p.NodeID(nil), peers...),
		tr:    tr,
		clock: clock,
		rng:   rng,
		cfg:   cfg,
		apply: apply,
		role:  Follower,
		log:   make([]Entry, 1), // sentinel at index 0
	}
}

// Start arms the election timer; call once after wiring the transport.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.resetElectionTimerLocked()
}

// Stop halts the node; it ignores all further traffic.
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopped = true
	n.electionTimer.Stop()
	n.heartbeatTimer.Stop()
}

// IsLeader reports whether this node currently believes it leads.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == Leader
}

// Leader returns the node's current view of the leader ("" if unknown).
func (n *Node) Leader() p2p.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader
}

// Term returns the current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.currentTerm
}

// Applied returns the highest log index applied, which is the commit
// index: every entry point applies up to it before releasing the lock.
func (n *Node) Applied() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastApplied
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Propose appends data to the replicated log. Only the leader accepts
// proposals; followers return ErrNotLeader.
func (n *Node) Propose(data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return ErrStopped
	}
	if n.role != Leader {
		return fmt.Errorf("%w (leader is %q)", ErrNotLeader, n.leader)
	}
	n.log = append(n.log, Entry{Term: n.currentTerm, Data: data})
	n.matchIndex[n.id] = uint64(len(n.log) - 1)
	n.broadcastAppendLocked()
	// Single-node cluster: commit immediately.
	n.advanceCommitLocked()
	return nil
}

// HandleMessage processes one raft message; wire it into the node's Mux
// under MsgPrefix.
func (n *Node) HandleMessage(m p2p.Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return
	}
	switch m.Type {
	case MsgPrefix + "vote-req":
		if req, err := decodeVoteReq(m.Data); err == nil {
			n.onVoteReq(m.From, req)
		}
	case MsgPrefix + "vote-resp":
		if resp, err := decodeVoteResp(m.Data); err == nil {
			n.onVoteResp(m.From, resp)
		}
	case MsgPrefix + "append":
		if req, err := decodeAppendReq(m.Data); err == nil {
			n.onAppend(m.From, req)
		}
	case MsgPrefix + "append-resp":
		if resp, err := decodeAppendResp(m.Data); err == nil {
			n.onAppendResp(m.From, resp)
		}
	}
}

func (n *Node) send(to p2p.NodeID, typ string, v wireMsg) {
	_ = n.tr.Send(to, p2p.Message{Type: MsgPrefix + typ, Data: v.encode()})
}

func (n *Node) resetElectionTimerLocked() {
	n.electionTimer.Stop()
	d := n.cfg.ElectionTimeout + time.Duration(n.rng.Int63n(int64(n.cfg.ElectionTimeout)))
	n.electionTimer = n.clock.After(d, n.onElectionTimeout)
}

func (n *Node) onElectionTimeout() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped || n.role == Leader {
		return
	}
	// Become candidate.
	n.role = Candidate
	n.currentTerm++
	n.votedFor = n.id
	n.leader = ""
	n.votes = map[p2p.NodeID]bool{n.id: true}
	lastIdx := uint64(len(n.log) - 1)
	req := voteReq{
		Term:         n.currentTerm,
		Candidate:    string(n.id),
		LastLogIndex: lastIdx,
		LastLogTerm:  n.log[lastIdx].Term,
	}
	for _, p := range n.peers {
		n.send(p, "vote-req", req)
	}
	n.resetElectionTimerLocked()
	n.maybeWinLocked() // single-node cluster wins instantly
}

func (n *Node) stepDownLocked(term uint64) {
	n.currentTerm = term
	n.role = Follower
	n.votedFor = ""
	n.heartbeatTimer.Stop()
	n.resetElectionTimerLocked()
}

func (n *Node) onVoteReq(from p2p.NodeID, req voteReq) {
	if req.Term > n.currentTerm {
		n.stepDownLocked(req.Term)
	}
	grant := false
	if req.Term == n.currentTerm && (n.votedFor == "" || n.votedFor == p2p.NodeID(req.Candidate)) {
		// Log up-to-date check (§5.4.1).
		lastIdx := uint64(len(n.log) - 1)
		lastTerm := n.log[lastIdx].Term
		if req.LastLogTerm > lastTerm || (req.LastLogTerm == lastTerm && req.LastLogIndex >= lastIdx) {
			grant = true
			n.votedFor = p2p.NodeID(req.Candidate)
			n.resetElectionTimerLocked()
		}
	}
	n.send(from, "vote-resp", voteResp{Term: n.currentTerm, Granted: grant})
}

func (n *Node) onVoteResp(from p2p.NodeID, resp voteResp) {
	if resp.Term > n.currentTerm {
		n.stepDownLocked(resp.Term)
		return
	}
	if n.role != Candidate || resp.Term < n.currentTerm || !resp.Granted {
		return
	}
	n.votes[from] = true
	n.maybeWinLocked()
}

func (n *Node) maybeWinLocked() {
	if n.role != Candidate || len(n.votes) < n.quorum() {
		return
	}
	// Win the election.
	n.role = Leader
	n.leader = n.id
	n.nextIndex = make(map[p2p.NodeID]uint64, len(n.peers))
	n.matchIndex = make(map[p2p.NodeID]uint64, len(n.peers)+1)
	last := uint64(len(n.log) - 1)
	for _, p := range n.peers {
		n.nextIndex[p] = last + 1
	}
	n.matchIndex[n.id] = last
	n.electionTimer.Stop()
	n.broadcastAppendLocked()
	n.scheduleHeartbeatLocked()
}

func (n *Node) quorum() int { return (len(n.peers)+1)/2 + 1 }

func (n *Node) scheduleHeartbeatLocked() {
	n.heartbeatTimer.Stop()
	n.heartbeatTimer = n.clock.After(n.cfg.HeartbeatInterval, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.stopped || n.role != Leader {
			return
		}
		n.broadcastAppendLocked()
		n.scheduleHeartbeatLocked()
	})
}

func (n *Node) broadcastAppendLocked() {
	for _, p := range n.peers {
		next := n.nextIndex[p]
		if next < 1 {
			next = 1
		}
		prev := next - 1
		req := appendReq{
			Term:         n.currentTerm,
			Leader:       string(n.id),
			PrevLogIndex: prev,
			PrevLogTerm:  n.log[prev].Term,
			LeaderCommit: n.commitIndex,
		}
		if uint64(len(n.log)) > next {
			req.Entries = append([]Entry(nil), n.log[next:]...)
		}
		n.send(p, "append", req)
	}
}

func (n *Node) onAppend(from p2p.NodeID, req appendReq) {
	if req.Term > n.currentTerm {
		n.stepDownLocked(req.Term)
	}
	resp := appendResp{Term: n.currentTerm}
	if req.Term < n.currentTerm {
		n.send(from, "append-resp", resp)
		return
	}
	// Valid leader for this term.
	if n.role != Follower {
		n.role = Follower
		n.heartbeatTimer.Stop()
	}
	n.leader = p2p.NodeID(req.Leader)
	n.resetElectionTimerLocked()

	// Consistency check.
	if req.PrevLogIndex >= uint64(len(n.log)) || n.log[req.PrevLogIndex].Term != req.PrevLogTerm {
		n.send(from, "append-resp", resp)
		return
	}
	// Append, truncating conflicts.
	idx := req.PrevLogIndex
	for i, e := range req.Entries {
		idx = req.PrevLogIndex + uint64(i) + 1
		if idx < uint64(len(n.log)) {
			if n.log[idx].Term != e.Term {
				n.log = n.log[:idx]
				n.log = append(n.log, e)
			}
			continue
		}
		n.log = append(n.log, e)
	}
	last := req.PrevLogIndex + uint64(len(req.Entries))
	if req.LeaderCommit > n.commitIndex {
		n.commitIndex = min(req.LeaderCommit, uint64(len(n.log)-1))
		n.applyCommittedLocked()
	}
	resp.Success = true
	resp.MatchIndex = last
	n.send(from, "append-resp", resp)
}

func (n *Node) onAppendResp(from p2p.NodeID, resp appendResp) {
	if resp.Term > n.currentTerm {
		n.stepDownLocked(resp.Term)
		return
	}
	if n.role != Leader || resp.Term < n.currentTerm {
		return
	}
	if !resp.Success {
		if n.nextIndex[from] > 1 {
			n.nextIndex[from]--
		}
		return
	}
	if resp.MatchIndex > n.matchIndex[from] {
		n.matchIndex[from] = resp.MatchIndex
		n.nextIndex[from] = resp.MatchIndex + 1
	}
	n.advanceCommitLocked()
}

func (n *Node) advanceCommitLocked() {
	for idx := uint64(len(n.log) - 1); idx > n.commitIndex; idx-- {
		if n.log[idx].Term != n.currentTerm {
			continue // §5.4.2: only commit current-term entries by counting
		}
		count := 0
		for _, m := range n.matchIndex {
			if m >= idx {
				count++
			}
		}
		if count >= n.quorum() {
			n.commitIndex = idx
			n.applyCommittedLocked()
			break
		}
	}
}

func (n *Node) applyCommittedLocked() {
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		if n.apply != nil {
			n.apply(n.lastApplied, n.log[n.lastApplied].Data)
		}
	}
}

// LogLen returns the number of entries in the log (excluding sentinel).
func (n *Node) LogLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.log) - 1
}
