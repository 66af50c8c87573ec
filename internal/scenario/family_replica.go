package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/pbft"
	"dcsledger/internal/consensus/raft"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/p2p"
)

// swapTransport is a mutable indirection between a consensus node and
// its network endpoint: churn replaces the endpoint (Rejoin issues a
// fresh one) without the node noticing. The simulation is
// single-threaded, so no lock.
type swapTransport struct {
	ep p2p.Transport
}

func (s *swapTransport) Self() p2p.NodeID                        { return s.ep.Self() }
func (s *swapTransport) Peers() []p2p.NodeID                     { return s.ep.Peers() }
func (s *swapTransport) Send(to p2p.NodeID, m p2p.Message) error { return s.ep.Send(to, m) }

// replicaFamily drives N members of one log-replication group through
// consensus.Replica and checks, globally, the safety invariant both
// protocols promise: no two replicas may ever apply different
// operations at the same sequence number. What is pbft's or raft's
// alone is in the fields its constructor sets.
type replicaFamily struct {
	prefix string // the protocol's MsgPrefix
	// newNode builds replica i of ids on tr, delivering to apply.
	newNode func(e *Engine, i int, ids []p2p.NodeID, tr p2p.Transport, apply consensus.ApplyFunc) (consensus.Replica, error)
	// wired, if set, runs once every replica is built and routed.
	wired func()
	// target picks the live replica workload unit k is proposed at.
	target func(e *Engine, k uint64) (i int, ok bool)
	// equivocate, if set, services the Equivocate action; disarm then
	// switches every Byzantine actor off for the drain.
	equivocate func(Equivocate) error
	disarm     func()

	nodes []consensus.Replica
	muxes []*p2p.Mux
	swaps []*swapTransport

	agreed      map[uint64]cryptoutil.Hash // seq -> digest, union over replicas
	seen        map[cryptoutil.Hash]bool   // ops applied somewhere, dedup
	submitAt    map[cryptoutil.Hash]time.Time
	latency     time.Duration
	latencyN    int
	committed   uint64
	maxSeq      uint64
	lastApplied []uint64 // per-replica Applied(), monotonicity check
}

func newReplicaFamily(prefix string) *replicaFamily {
	return &replicaFamily{
		prefix:   prefix,
		agreed:   make(map[uint64]cryptoutil.Hash),
		seen:     make(map[cryptoutil.Hash]bool),
		submitAt: make(map[cryptoutil.Hash]time.Time),
	}
}

// newPBFTFamily is N PBFT replicas (quorum 2f+1), workload round-robin
// over the live ones. Replicas the script will ever equivocate get the
// tampering transport from the start, disarmed until their step fires.
func newPBFTFamily() *replicaFamily {
	f := newReplicaFamily(pbft.MsgPrefix)
	evil := make(map[int]*pbft.EquivocatingTransport)
	f.newNode = func(e *Engine, i int, ids []p2p.NodeID, tr p2p.Transport, apply consensus.ApplyFunc) (consensus.Replica, error) {
		for _, st := range e.Scenario.Steps {
			if eq, ok := st.Action.(Equivocate); ok && eq.Node == i {
				evil[i] = pbft.NewEquivocatingTransport(tr, ids)
				tr = evil[i]
				break
			}
		}
		return pbft.NewNode(ids[i], ids, tr, e.Sim, pbft.Config{ViewTimeout: 2 * time.Second}, apply)
	}
	f.target = func(e *Engine, k uint64) (int, bool) {
		live := e.Live()
		if len(live) == 0 {
			return 0, false
		}
		return live[int(k)%len(live)], true
	}
	f.equivocate = func(act Equivocate) error {
		ev := evil[act.Node]
		if ev == nil {
			return fmt.Errorf("replica %d has no equivocating transport (internal)", act.Node)
		}
		ev.Arm(act.On)
		return nil
	}
	f.disarm = func() {
		for _, ev := range evil {
			ev.Arm(false)
		}
	}
	return f
}

// newRaftFamily is an N-node Raft cluster with seeded election timers,
// started once all are wired. Workload goes to the current leader, if a
// live one exists; during elections the unit is simply lost, as a real
// client's would be without retry.
func newRaftFamily() *replicaFamily {
	f := newReplicaFamily(raft.MsgPrefix)
	var nodes []*raft.Node
	f.newNode = func(e *Engine, i int, ids []p2p.NodeID, tr p2p.Transport, apply consensus.ApplyFunc) (consensus.Replica, error) {
		peers := make([]p2p.NodeID, 0, len(ids)-1)
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		n := raft.NewNode(ids[i], peers, tr, e.Sim,
			rand.New(rand.NewSource(e.Scenario.Seed+int64(i)*7919+1)),
			raft.Config{ElectionTimeout: 500 * time.Millisecond, HeartbeatInterval: 100 * time.Millisecond}, apply)
		nodes = append(nodes, n)
		return n, nil
	}
	f.wired = func() {
		for _, n := range nodes {
			n.Start()
		}
	}
	f.target = func(e *Engine, k uint64) (int, bool) {
		for _, j := range e.Live() {
			if nodes[j].IsLeader() {
				return j, true
			}
		}
		return 0, false
	}
	return f
}

func (f *replicaFamily) build(e *Engine) error {
	ids := make([]p2p.NodeID, e.Scenario.N)
	for i := range ids {
		ids[i] = p2p.NodeName(i)
	}
	f.nodes = make([]consensus.Replica, len(ids))
	f.muxes = make([]*p2p.Mux, len(ids))
	f.swaps = make([]*swapTransport, len(ids))
	f.lastApplied = make([]uint64, len(ids))
	for i := range ids {
		mux := p2p.NewMux()
		ep, err := e.Net.Join(ids[i], mux.Dispatch)
		if err != nil {
			return err
		}
		swap := &swapTransport{ep: ep}
		n, err := f.newNode(e, i, ids, swap, func(seq uint64, op []byte) { f.onApply(e, i, seq, op) })
		if err != nil {
			return err
		}
		mux.Handle(f.prefix, n.HandleMessage)
		f.nodes[i], f.muxes[i], f.swaps[i] = n, mux, swap
	}
	if f.wired != nil {
		f.wired()
	}
	return nil
}

// onApply is every replica's apply callback — the safety invariant is
// checked at the instant of application, not at the next sweep.
func (f *replicaFamily) onApply(e *Engine, i int, seq uint64, op []byte) {
	d := cryptoutil.HashBytes(op)
	if prev, ok := f.agreed[seq]; ok {
		if prev != d {
			e.violate("%s divergent apply: replica %d seq %d digest %s, cluster agreed %s",
				e.Scenario.Family, i, seq, d.Short(), prev.Short())
		}
	} else {
		f.agreed[seq] = d
	}
	if seq > f.maxSeq {
		f.maxSeq = seq
	}
	if !f.seen[d] {
		f.seen[d] = true
		f.committed++
		if t0, ok := f.submitAt[d]; ok {
			f.latency += e.Sim.Now().Sub(t0)
			f.latencyN++
		}
	}
}

func (f *replicaFamily) submit(e *Engine, k uint64) {
	i, ok := f.target(e, k)
	if !ok {
		return
	}
	op := []byte(fmt.Sprintf("op-%06d", k))
	if err := f.nodes[i].Propose(op); err == nil {
		f.submitAt[cryptoutil.HashBytes(op)] = e.Sim.Now()
	}
}

func (f *replicaFamily) apply(e *Engine, a Action) error {
	switch act := a.(type) {
	case Leave:
		return e.Net.Leave(p2p.NodeName(act.Node))
	case Rejoin:
		ep, err := e.Net.Rejoin(p2p.NodeName(act.Node), f.muxes[act.Node].Dispatch)
		if err != nil {
			return err
		}
		f.swaps[act.Node].ep = ep
		return nil
	case Spam:
		// Junk protocol messages of Size bytes at deterministically
		// chosen live peers.
		e.spam(act, func(s *spammer) {
			live := e.Live()
			payload := make([]byte, s.size)
			s.rng.Read(payload)
			to := p2p.NodeName(live[s.rng.Intn(len(live))])
			_ = f.swaps[act.Node].Send(to, p2p.Message{Type: f.prefix + "junk", Data: payload})
		})
		return nil
	case Equivocate:
		if f.equivocate != nil {
			return f.equivocate(act)
		}
	}
	return fmt.Errorf("%s family does not support %T", e.Scenario.Family, a)
}

func (f *replicaFamily) sweep(e *Engine) {
	// Applied counters only ever grow: a shrink would mean a replica
	// un-applied an operation (the log-replication analog of a
	// finalized-block reversal).
	for _, j := range e.Live() {
		cnt := f.nodes[j].Applied()
		if cnt < f.lastApplied[j] {
			e.violate("%s replica %d applied count shrank %d -> %d", e.Scenario.Family, j, f.lastApplied[j], cnt)
		}
		f.lastApplied[j] = cnt
	}
}

func (f *replicaFamily) quiesce(e *Engine) {
	if f.disarm != nil {
		f.disarm()
	}
}

func (f *replicaFamily) finish(e *Engine) {
	rep := e.Report
	rep.Height = f.maxSeq
	rep.Committed = f.committed
	if f.latencyN > 0 {
		rep.FinalityLatency = f.latency / time.Duration(f.latencyN)
	}
}
