package pbft

// Byzantine behavior injection for the scenario harness: an equivocating
// transport that splits a primary's pre-prepares into two conflicting
// proposals. It lives in this package because equivocation must
// re-encode protocol messages with the package-internal codec and
// digest.

import (
	"sync"

	"dcsledger/internal/p2p"
)

// EquivocatingTransport wraps a PBFT replica's transport and, while
// armed, turns the replica into an equivocating primary: outgoing
// pre-prepare messages addressed to the second half of the replica set
// carry a tampered operation (with a correctly recomputed digest, so
// the receiver's integrity check passes), while the first half receives
// the original. Each half then prepares a different digest for the same
// (view, seq) slot — the classic conflicting-proposal attack that PBFT
// must survive by stalling the slot and changing views rather than
// executing divergent operations.
//
// The transformation is a pure function of the message and its target,
// so simulations stay deterministic. All other traffic passes through
// untouched.
type EquivocatingTransport struct {
	mu       sync.Mutex
	inner    p2p.Transport
	replicas []p2p.NodeID
	armed    bool
	sent     int // tampered pre-prepares sent
}

var _ p2p.Transport = (*EquivocatingTransport)(nil)

// NewEquivocatingTransport wraps inner. replicas must list the cluster
// in the same order the replica itself was configured with; targets in
// its second half receive the conflicting proposal while armed.
func NewEquivocatingTransport(inner p2p.Transport, replicas []p2p.NodeID) *EquivocatingTransport {
	return &EquivocatingTransport{
		inner:    inner,
		replicas: append([]p2p.NodeID(nil), replicas...),
	}
}

// Arm enables or disables equivocation.
func (e *EquivocatingTransport) Arm(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.armed = on
}

// Equivocations returns how many tampered pre-prepares were sent.
func (e *EquivocatingTransport) Equivocations() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sent
}

// Self implements p2p.Transport.
func (e *EquivocatingTransport) Self() p2p.NodeID { return e.inner.Self() }

// Peers implements p2p.Transport.
func (e *EquivocatingTransport) Peers() []p2p.NodeID { return e.inner.Peers() }

// Send implements p2p.Transport, tampering armed pre-prepares to
// second-half targets.
func (e *EquivocatingTransport) Send(to p2p.NodeID, m p2p.Message) error {
	e.mu.Lock()
	if e.armed && m.Type == MsgPrefix+"pre-prepare" && e.secondHalf(to) {
		if pp, err := decodePrePrepare(m.Data); err == nil {
			pp.Op = append(append([]byte(nil), pp.Op...), []byte("/equivocated")...)
			pp.Digest = opDigest(pp.Op)
			m.Data = pp.encode()
			e.sent++
		}
	}
	e.mu.Unlock()
	return e.inner.Send(to, m)
}

func (e *EquivocatingTransport) secondHalf(id p2p.NodeID) bool {
	for i, r := range e.replicas {
		if r == id {
			return i >= len(e.replicas)/2
		}
	}
	return false
}
