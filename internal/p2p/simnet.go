package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/simclock"
)

// Simulated-network errors.
var (
	ErrUnknownPeer = errors.New("p2p: unknown peer")
	ErrDuplicateID = errors.New("p2p: node id already joined")
)

// SimStats aggregates traffic counters for experiments.
type SimStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Bytes     uint64
}

// SimNetwork is a deterministic in-memory network running on a virtual
// clock: messages are delivered as scheduled events after a configurable
// latency, with optional jitter, loss, and partitions. All interaction
// must happen on the simulator's event loop; the type is intentionally
// not goroutine-safe.
type SimNetwork struct {
	clock *simclock.Simulator
	rng   *rand.Rand
	seed  int64

	endpoints map[NodeID]*SimEndpoint
	departed  map[NodeID]bool
	latency   time.Duration
	jitter    time.Duration
	blocked   map[[2]NodeID]bool
	dropRate  float64
	partition map[NodeID]int

	stats SimStats
}

// SimOption configures a SimNetwork.
type SimOption interface{ apply(*SimNetwork) }

type simOptionFunc func(*SimNetwork)

func (f simOptionFunc) apply(n *SimNetwork) { f(n) }

// WithLatency sets the base one-way delivery latency (default 50ms).
func WithLatency(d time.Duration) SimOption {
	return simOptionFunc(func(n *SimNetwork) { n.latency = d })
}

// WithJitter adds up to d of uniformly random extra latency per message.
func WithJitter(d time.Duration) SimOption {
	return simOptionFunc(func(n *SimNetwork) { n.jitter = d })
}

// WithDropRate makes each message independently lost with probability p.
func WithDropRate(p float64) SimOption {
	return simOptionFunc(func(n *SimNetwork) { n.dropRate = p })
}

// NewSimNetwork creates a simulated network on the given clock, seeded
// for reproducibility.
func NewSimNetwork(clock *simclock.Simulator, seed int64, opts ...SimOption) *SimNetwork {
	n := &SimNetwork{
		clock:     clock,
		rng:       rand.New(rand.NewSource(seed)),
		seed:      seed,
		endpoints: make(map[NodeID]*SimEndpoint),
		departed:  make(map[NodeID]bool),
		latency:   50 * time.Millisecond,
		blocked:   make(map[[2]NodeID]bool),
		partition: make(map[NodeID]int),
	}
	for _, o := range opts {
		o.apply(n)
	}
	return n
}

// Join registers a node and its message handler, returning its endpoint.
func (n *SimNetwork) Join(id NodeID, h Handler) (*SimEndpoint, error) {
	if _, ok := n.endpoints[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	ep := &SimEndpoint{net: n, id: id, handler: h}
	n.endpoints[id] = ep
	delete(n.departed, id)
	return ep, nil
}

// Leave removes a node from the network. Queued-message semantics:
// messages already in flight to the departed node are counted Dropped at
// their delivery time (they can never reach a later incarnation), and
// subsequent sends addressed to it are accounted Sent+Dropped and return
// nil — a departed peer looks like loss, not like an addressing error.
// The node's partition-group membership is left untouched so a later
// Rejoin lands back in the same group. Returns ErrUnknownPeer if the id
// is not currently joined.
func (n *SimNetwork) Leave(id NodeID) error {
	ep, ok := n.endpoints[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, id)
	}
	ep.left = true
	delete(n.endpoints, id)
	n.departed[id] = true
	return nil
}

// Rejoin re-registers a previously departed node with a fresh endpoint
// and handler. Messages queued for the old incarnation stay dropped; the
// new endpoint only receives traffic sent after the rejoin. Returns
// ErrUnknownPeer if the id never left (use Join for first-time
// registration) and ErrDuplicateID if it is currently joined.
func (n *SimNetwork) Rejoin(id NodeID, h Handler) (*SimEndpoint, error) {
	if _, ok := n.endpoints[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	if !n.departed[id] {
		return nil, fmt.Errorf("%w: %s never joined", ErrUnknownPeer, id)
	}
	return n.Join(id, h)
}

// SetHandler replaces a node's handler (used when wiring a node after
// transport creation).
func (n *SimNetwork) SetHandler(id NodeID, h Handler) error {
	ep, ok := n.endpoints[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, id)
	}
	ep.handler = h
	return nil
}

// BlockLink drops all messages on the directed link from → to until
// Heal. Unlike Partition's symmetric groups, this models
// asymmetric faults: from can be deaf to to while to still hears from.
func (n *SimNetwork) BlockLink(from, to NodeID) {
	n.blocked[[2]NodeID{from, to}] = true
}

// Partition splits the network into groups; messages across group
// boundaries are dropped until Heal. Nodes not listed stay in group 0.
func (n *SimNetwork) Partition(groups ...[]NodeID) {
	n.partition = make(map[NodeID]int)
	for gi, group := range groups {
		for _, id := range group {
			n.partition[id] = gi + 1
		}
	}
}

// Heal removes all partitions and directed link blocks.
func (n *SimNetwork) Heal() {
	n.partition = make(map[NodeID]int)
	n.blocked = make(map[[2]NodeID]bool)
}

// RNGStream derives an independent deterministic random stream from the
// network seed and a label. Scenario actors draw from their own labelled
// streams so adding an actor (or reordering sends) never perturbs the
// jitter/drop stream that shapes everyone else's traffic.
func (n *SimNetwork) RNGStream(label string) *rand.Rand {
	h := cryptoutil.HashUint64("dcsledger/simnet-rng/"+label, uint64(n.seed))
	return rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(h[:8]))))
}

// Stats returns a snapshot of the traffic counters.
func (n *SimNetwork) Stats() SimStats { return n.stats }

// NodeIDs lists all joined nodes.
func (n *SimNetwork) NodeIDs() []NodeID {
	out := make([]NodeID, 0, len(n.endpoints))
	for id := range n.endpoints {
		out = append(out, id)
	}
	return out
}

func (n *SimNetwork) send(from, to NodeID, m Message) error {
	dst, ok := n.endpoints[to]
	if !ok {
		if n.departed[to] {
			// Dead peer: the message goes into the void, like loss.
			n.stats.Sent++
			n.stats.Bytes += uint64(len(m.Data))
			n.stats.Dropped++
			return nil
		}
		return fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	n.stats.Sent++
	n.stats.Bytes += uint64(len(m.Data))
	if n.partition[from] != n.partition[to] {
		n.stats.Dropped++
		return nil // partitioned: silently lost, like the real network
	}
	if n.blocked[[2]NodeID{from, to}] {
		n.stats.Dropped++
		return nil // asymmetric link fault
	}
	if n.dropRate > 0 && n.rng.Float64() < n.dropRate {
		n.stats.Dropped++
		return nil
	}
	d := n.latency
	if n.jitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.jitter)))
	}
	m.From = from
	n.clock.After(d, func() {
		if dst.left {
			// The destination departed while the message was in flight;
			// it can never reach a later incarnation of the same id.
			n.stats.Dropped++
			return
		}
		n.stats.Delivered++
		if dst.handler != nil {
			dst.handler(m)
		}
	})
	return nil
}

// SimEndpoint is one node's attachment to a SimNetwork.
type SimEndpoint struct {
	net     *SimNetwork
	id      NodeID
	handler Handler
	left    bool // set by Leave: in-flight deliveries to this incarnation are dropped
}

var _ Transport = (*SimEndpoint)(nil)

// Self implements Transport.
func (e *SimEndpoint) Self() NodeID { return e.id }

// Send implements Transport. A stale endpoint — one whose node has
// left — sends into the void: its traffic is accounted Sent+Dropped so
// a departed node's still-running timers cannot reach the network.
func (e *SimEndpoint) Send(to NodeID, m Message) error {
	if e.left {
		e.net.stats.Sent++
		e.net.stats.Bytes += uint64(len(m.Data))
		e.net.stats.Dropped++
		return nil
	}
	return e.net.send(e.id, to, m)
}

// Peers implements Transport: the full membership, excluding self.
func (e *SimEndpoint) Peers() []NodeID {
	out := make([]NodeID, 0, len(e.net.endpoints)-1)
	for id := range e.net.endpoints {
		if id != e.id {
			out = append(out, id)
		}
	}
	return out
}
