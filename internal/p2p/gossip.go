package p2p

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/metrics"
)

// GossipMsgType is the Message.Type used by the gossip protocol.
const GossipMsgType = "gossip"

// DefaultMaxHops is the forwarding TTL: an envelope that has
// already traveled this many hops is delivered (if new) but not
// forwarded again, so a forged high-hop envelope cannot circulate
// indefinitely across seen-cache evictions. Gossip on a connected
// overlay reaches every node in O(log n) hops; 16 covers overlays far
// larger than any simulation here runs.
const DefaultMaxHops = 16

// DefaultSeenCap bounds the duplicate-suppression cache. Without a
// bound the seen-set is an unmetered memory grant to the network — any
// peer can grow it forever by publishing fresh IDs. Eviction is FIFO
// in arrival order, which is deterministic for one node's observed
// stream; the hop TTL (DefaultMaxHops) keeps an evicted-then-reseen
// item from circulating indefinitely. An entry is a 16-byte key, once in
// a ring and once in a map: measured at the default cap, 54 B of heap an
// entry, ~3.4 MiB in all (TestSeenCacheBytesPerEntry), and flat from there.
const DefaultSeenCap = 65536

// envelope is one gossiped item; its binary wire format is defined in
// codec.go (decodeEnvelope) and docs/WIRE.md.
type envelope struct {
	ID      cryptoutil.Hash
	Topic   string
	Payload []byte
	Hops    uint8
}

// DeliverFunc receives a gossiped payload exactly once per node.
type DeliverFunc func(from NodeID, payload []byte)

// GossipStats snapshots a gossiper's activity counters.
type GossipStats struct {
	Delivered  uint64 // distinct items delivered locally
	Duplicates uint64 // items suppressed as already seen
	Forwarded  uint64 // copies forwarded to neighbors
	IDMismatch uint64 // envelopes dropped: wire ID != Hash(topic, payload)
	TTLExpired uint64 // envelopes delivered but not forwarded: hop TTL reached
}

// Gossiper floods published items to the node's overlay neighbors:
// push-based epidemic broadcast with duplicate suppression, the
// mechanism Section 2.3 describes for disseminating transactions and
// blocks. Each node forwards a newly seen item to min(fanout,
// |neighbors|) random neighbors.
//
// Gossiper is safe for concurrent use: HandleMessage may be invoked
// from many TCP reader goroutines while Publish runs on the node's
// application path. The mutex guards the seen-set, subscriptions,
// neighbor list, and rng; delivery callbacks and transport sends run
// outside the lock, so a callback may re-enter the gossiper (or take
// the node lock) without deadlocking.
type Gossiper struct {
	tr     Transport
	fanout int

	mu        sync.Mutex
	neighbors []NodeID
	rng       *rand.Rand
	seen      map[seenKey]struct{}
	seenQ     []seenKey // ring of the live keys, oldest at seenHead; full, or seenHead is 0
	seenHead  int
	seenCap   int
	subs      map[string]DeliverFunc

	delivered  atomic.Uint64
	duplicates atomic.Uint64
	forwarded  atomic.Uint64
	idMismatch atomic.Uint64
	ttlExpired atomic.Uint64
}

// NewGossiper creates a gossiper for the node behind tr, forwarding to
// the given overlay neighbors with the given fanout.
func NewGossiper(tr Transport, neighbors []NodeID, fanout int, rng *rand.Rand) *Gossiper {
	if fanout < 1 {
		fanout = 1
	}
	return &Gossiper{
		tr:        tr,
		neighbors: append([]NodeID(nil), neighbors...),
		fanout:    fanout,
		rng:       rng,
		seen:      make(map[seenKey]struct{}),
		seenCap:   DefaultSeenCap,
		subs:      make(map[string]DeliverFunc),
	}
}

// Subscribe registers the delivery callback for a topic.
func (g *Gossiper) Subscribe(topic string, fn DeliverFunc) {
	g.mu.Lock()
	defer g.mu.Unlock()
	//dcslint:ignore unbounded one entry per code-defined topic, registered at node wiring time — not writable by remote input
	g.subs[topic] = fn
}

// seenKey is what the seen-cache keeps of an item's ID: its first 128
// bits. The ID is the one this node computed from (topic, payload), never
// one read off the wire, so having an item suppressed as another's
// duplicate takes a second preimage of those 128 bits.
type seenKey [16]byte

// markSeen atomically records id in the seen-set, reporting whether
// this call was the first to see it. The check-and-set must be one
// critical section so two concurrent readers holding the same item
// cannot both deliver it.
func (g *Gossiper) markSeen(id cryptoutil.Hash) bool {
	key := seenKey(id[:16])
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.seen[key]; ok {
		return false
	}
	if len(g.seenQ) < g.seenCap {
		g.seenQ = append(g.seenQ, key)
	} else {
		delete(g.seen, g.seenQ[g.seenHead])
		g.seenQ[g.seenHead] = key
		g.seenHead = (g.seenHead + 1) % g.seenCap
	}
	g.seen[key] = struct{}{}
	return true
}

// SetSeenCap overrides the duplicate-suppression cache bound (0
// restores DefaultSeenCap). Call before traffic starts.
func (g *Gossiper) SetSeenCap(n int) {
	if n <= 0 {
		n = DefaultSeenCap
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	live := slices.Concat(g.seenQ[g.seenHead:], g.seenQ[:g.seenHead]) // oldest first
	for ; len(live) > n; live = live[1:] {
		delete(g.seen, live[0])
	}
	g.seenQ, g.seenHead, g.seenCap = live, 0, n
}

// Publish floods payload under topic, delivering locally first.
func (g *Gossiper) Publish(topic string, payload []byte) {
	env := envelope{
		ID:      envelopeID(topic, payload),
		Topic:   topic,
		Payload: payload,
	}
	if !g.markSeen(env.ID) {
		g.duplicates.Add(1)
		return
	}
	g.deliver(g.tr.Self(), env)
	g.forward(env)
}

// HandleMessage processes an incoming gossip Message; wire it into the
// node's Mux under GossipMsgType. Safe to call from concurrent
// transport reader goroutines.
//
// The envelope's ID is never trusted: it is recomputed from (topic,
// payload) and the message is dropped on mismatch. Trusting the wire
// ID would let a malicious peer pre-claim the ID of a legitimate item
// with a bogus payload, poisoning the seen-cache so the real item is
// later suppressed as a duplicate — a censorship vector.
func (g *Gossiper) HandleMessage(m Message) {
	env, err := decodeEnvelope(m.Data)
	if err != nil {
		return // malformed gossip from a faulty peer: drop
	}
	if got := envelopeID(env.Topic, env.Payload); got != env.ID {
		g.idMismatch.Add(1)
		return
	}
	if !g.markSeen(env.ID) {
		g.duplicates.Add(1)
		return
	}
	g.deliver(m.From, env)
	if env.Hops >= DefaultMaxHops {
		g.ttlExpired.Add(1)
		return
	}
	env.Hops++
	g.forward(env)
}

// envelopeID is the self-certifying gossip item identifier.
func envelopeID(topic string, payload []byte) cryptoutil.Hash {
	return cryptoutil.HashBytes([]byte("gossip/"+topic), payload)
}

// Stats returns a snapshot of the gossip counters.
func (g *Gossiper) Stats() GossipStats {
	return GossipStats{
		Delivered:  g.delivered.Load(),
		Duplicates: g.duplicates.Load(),
		Forwarded:  g.forwarded.Load(),
		IDMismatch: g.idMismatch.Load(),
		TTLExpired: g.ttlExpired.Load(),
	}
}

// RegisterMetrics exports the gossip counters into reg, collected once
// per scrape (gossip_delivered_total, gossip_duplicate_total,
// gossip_forwarded_total, gossip_id_mismatch_total,
// gossip_ttl_expired_total, and the seen-cache's gossip_seen_entries).
func (g *Gossiper) RegisterMetrics(reg *metrics.Registry) {
	reg.Collect(func(emit func(string, int64)) {
		st := g.Stats()
		g.mu.Lock()
		seen := len(g.seen)
		g.mu.Unlock()
		emit("gossip_seen_entries", int64(seen))
		emit("gossip_delivered_total", int64(st.Delivered))
		emit("gossip_duplicate_total", int64(st.Duplicates))
		emit("gossip_forwarded_total", int64(st.Forwarded))
		emit("gossip_id_mismatch_total", int64(st.IDMismatch))
		emit("gossip_ttl_expired_total", int64(st.TTLExpired))
	})
}

// deliver runs outside g.mu: the subscriber callback may call back
// into the gossiper or take the node's lock.
func (g *Gossiper) deliver(from NodeID, env envelope) {
	g.delivered.Add(1)
	g.mu.Lock()
	fn := g.subs[env.Topic]
	g.mu.Unlock()
	if fn != nil {
		fn(from, env.Payload)
	}
}

func (g *Gossiper) forward(env envelope) {
	data := encodeEnvelope(env)
	targets := g.pickNeighbors()
	for _, to := range targets {
		g.forwarded.Add(1)
		_ = g.tr.Send(to, Message{Type: GossipMsgType, Data: data})
	}
}

// pickNeighbors selects min(fanout, |neighbors|) random forwarding
// targets. It always returns a fresh slice — never the internal
// neighbor list — so callers cannot mutate overlay state.
func (g *Gossiper) pickNeighbors() []NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.neighbors) <= g.fanout {
		return append([]NodeID(nil), g.neighbors...)
	}
	idx := g.rng.Perm(len(g.neighbors))[:g.fanout]
	out := make([]NodeID, len(idx))
	for i, j := range idx {
		out[i] = g.neighbors[j]
	}
	return out
}

// RandomTopology builds a connected undirected overlay over ids: a ring
// (guaranteeing connectivity) plus random chords until each node has at
// least the requested degree. Deterministic for a given rng.
func RandomTopology(ids []NodeID, degree int, rng *rand.Rand) map[NodeID][]NodeID {
	n := len(ids)
	adj := make(map[NodeID]map[NodeID]struct{}, n)
	sorted := append([]NodeID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, id := range sorted {
		adj[id] = make(map[NodeID]struct{})
	}
	if n <= 1 {
		return flatten(adj)
	}
	link := func(a, b NodeID) {
		if a != b {
			adj[a][b] = struct{}{}
			adj[b][a] = struct{}{}
		}
	}
	// Ring for connectivity.
	for i, id := range sorted {
		link(id, sorted[(i+1)%n])
	}
	// Random chords up to the requested degree.
	if degree > n-1 {
		degree = n - 1
	}
	for _, id := range sorted {
		for attempts := 0; len(adj[id]) < degree && attempts < 10*n; attempts++ {
			link(id, sorted[rng.Intn(n)])
		}
	}
	return flatten(adj)
}

func flatten(adj map[NodeID]map[NodeID]struct{}) map[NodeID][]NodeID {
	out := make(map[NodeID][]NodeID, len(adj))
	for id, set := range adj {
		ns := make([]NodeID, 0, len(set))
		for nb := range set {
			ns = append(ns, nb)
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		out[id] = ns
	}
	return out
}

// NodeName formats the conventional node identifier used across the
// simulations.
func NodeName(i int) NodeID { return NodeID(fmt.Sprintf("node-%03d", i)) }
