package p2p

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/metrics"
)

// nullTransport is a concurrency-safe Transport stub that counts sends.
type nullTransport struct {
	self  NodeID
	peers []NodeID
	sent  atomic.Uint64
}

func (n *nullTransport) Self() NodeID               { return n.self }
func (n *nullTransport) Send(NodeID, Message) error { n.sent.Add(1); return nil }
func (n *nullTransport) Peers() []NodeID            { return n.peers }

// TestGossipConcurrentPublishAndHandle hammers one gossiper from many
// goroutines mixing Publish and HandleMessage (the paths invoked
// concurrently by TCP reader goroutines via Mux.Dispatch). Run with
// -race: the seed gossiper mutated seen/subs/delivered unsynchronized.
func TestGossipConcurrentPublishAndHandle(t *testing.T) {
	tr := &nullTransport{self: "self", peers: []NodeID{"b", "c", "d"}}
	g := NewGossiper(tr, []NodeID{"b", "c", "d"}, 2, rand.New(rand.NewSource(1)))

	var delivered atomic.Uint64
	g.Subscribe("t", func(NodeID, []byte) { delivered.Add(1) })

	const (
		workers = 8
		items   = 200
	)
	envFor := func(w, k int) []byte {
		payload := []byte(fmt.Sprintf("h-%d-%d", w, k))
		return encodeEnvelope(envelope{
			ID:      cryptoutil.HashBytes([]byte("gossip/t"), payload),
			Topic:   "t",
			Payload: payload,
		})
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < items; k++ {
				if w%2 == 0 {
					g.Publish("t", []byte(fmt.Sprintf("p-%d-%d", w, k)))
				} else {
					// Every odd worker injects the same envelopes, so
					// all but one handler call is a duplicate.
					g.HandleMessage(Message{From: "peer", Type: GossipMsgType, Data: envFor(1, k)})
				}
			}
		}()
	}
	wg.Wait()

	// Distinct items: workers/2 publishers × items unique payloads,
	// plus `items` distinct injected envelopes (shared by all odd
	// workers).
	want := uint64(workers/2*items + items)
	if got := g.Stats().Delivered; got != want {
		t.Fatalf("delivered %d, want %d", got, want)
	}
	if got := delivered.Load(); got != want {
		t.Fatalf("callback delivered %d, want %d", got, want)
	}
	st := g.Stats()
	if st.Duplicates == 0 {
		t.Fatal("expected duplicate suppressions > 0")
	}
	// Each first-seen item is forwarded to fanout=2 neighbors.
	if st.Forwarded != 2*want {
		t.Fatalf("forwarded %d, want %d", st.Forwarded, 2*want)
	}
	if tr.sent.Load() != 2*want {
		t.Fatalf("transport sends %d, want %d", tr.sent.Load(), 2*want)
	}
}

// TestPickNeighborsReturnsCopy guards against the seed bug where the
// internal neighbor slice leaked by reference when |neighbors| <=
// fanout, letting callers mutate overlay state.
func TestPickNeighborsReturnsCopy(t *testing.T) {
	tr := &nullTransport{self: "self"}
	g := NewGossiper(tr, []NodeID{"b", "c"}, 4, rand.New(rand.NewSource(1)))
	picked := g.pickNeighbors()
	if len(picked) != 2 {
		t.Fatalf("picked %v", picked)
	}
	picked[0] = "mutated"
	if ns := g.neighbors; ns[0] != "b" || ns[1] != "c" {
		t.Fatalf("internal neighbors mutated: %v", ns)
	}
}

// TestGossipOverConcurrentTCPMesh runs real gossip over the TCP
// transport: three nodes publish concurrently and everyone must
// deliver every distinct item exactly once, race-clean.
func TestGossipOverConcurrentTCPMesh(t *testing.T) {
	const (
		nodes   = 3
		perNode = 50
	)
	cfg := TCPConfig{QueueSize: 4096}

	trs := make([]*TCPTransport, nodes)
	gs := make([]*Gossiper, nodes)
	counts := make([]atomic.Uint64, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		mux := NewMux()
		tr, err := NewTCPTransportConfig(NodeName(i), "127.0.0.1:0", mux.Dispatch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[i] = tr
		var neighbors []NodeID
		for j := 0; j < nodes; j++ {
			if j != i {
				neighbors = append(neighbors, NodeName(j))
			}
		}
		g := NewGossiper(tr, neighbors, len(neighbors), rand.New(rand.NewSource(int64(i+1))))
		g.Subscribe("tx", func(NodeID, []byte) { counts[i].Add(1) })
		mux.Handle(GossipMsgType, g.HandleMessage)
		gs[i] = g
	}
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			if i != j {
				trs[i].AddPeer(NodeName(j), trs[j].Addr())
			}
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				gs[i].Publish("tx", []byte(fmt.Sprintf("item-%d-%d", i, k)))
			}
		}()
	}
	wg.Wait()

	want := uint64(nodes * perNode)
	for i := 0; i < nodes; i++ {
		i := i
		waitFor(t, 10*time.Second, func() bool { return counts[i].Load() == want },
			fmt.Sprintf("node %d delivered %d/%d", i, counts[i].Load(), want))
	}
	for i, tr := range trs {
		if n := series(tr, "p2p_recv_errors_total"); n != 0 {
			t.Fatalf("node %d: %d decode errors", i, n)
		}
		if d := gs[i].Stats().Delivered; d != want {
			t.Fatalf("node %d delivered %d, want %d", i, d, want)
		}
	}
}

// TestGossipRegisterMetrics exports gossip counters through a registry.
func TestGossipRegisterMetrics(t *testing.T) {
	tr := &nullTransport{self: "self"}
	g := NewGossiper(tr, []NodeID{"b"}, 1, rand.New(rand.NewSource(1)))
	reg := metrics.NewRegistry()
	g.RegisterMetrics(reg)
	g.Publish("t", []byte("one"))
	g.Publish("t", []byte("one")) // duplicate
	snap := reg.Snapshot()
	if snap["gossip_delivered_total"] != 1 || snap["gossip_duplicate_total"] != 1 || snap["gossip_forwarded_total"] != 1 {
		t.Fatalf("snapshot %v", snap)
	}
}

// TestSeenCacheBounded proves the duplicate-suppression cache evicts
// FIFO at the configured cap: live entries never exceed the cap, the
// oldest IDs are forgotten first, and the queue's backing array is
// compacted rather than growing with total traffic.
func TestSeenCacheBounded(t *testing.T) {
	tr := &nullTransport{self: "n0"}
	g := NewGossiper(tr, nil, 1, rand.New(rand.NewSource(1)))
	g.SetSeenCap(8)

	var ids []cryptoutil.Hash
	for i := 0; i < 40; i++ {
		id := cryptoutil.HashBytes([]byte{byte(i)})
		ids = append(ids, id)
		if !g.markSeen(id) {
			t.Fatalf("fresh id %d reported as duplicate", i)
		}
		g.mu.Lock()
		live, qlen, head := len(g.seen), len(g.seenQ), g.seenHead
		g.mu.Unlock()
		if live > 8 {
			t.Fatalf("after %d inserts: %d live entries, cap 8", i+1, live)
		}
		if qlen-head > 8+1 || qlen > 2*(8+1) {
			t.Fatalf("after %d inserts: queue len %d head %d — compaction failed", i+1, qlen, head)
		}
	}
	// The newest 8 are still deduplicated; the oldest were evicted and
	// count as fresh again.
	if g.markSeen(ids[len(ids)-1]) {
		t.Error("newest id should still be in the seen-cache")
	}
	if !g.markSeen(ids[0]) {
		t.Error("oldest id should have been evicted FIFO")
	}
}

// TestSetSeenCapShrinksLive lowering the cap evicts immediately.
func TestSetSeenCapShrinksLive(t *testing.T) {
	tr := &nullTransport{self: "n0"}
	g := NewGossiper(tr, nil, 1, rand.New(rand.NewSource(1)))
	for i := 0; i < 16; i++ {
		g.markSeen(cryptoutil.HashBytes([]byte{byte(i)}))
	}
	g.SetSeenCap(4)
	g.mu.Lock()
	live := len(g.seen)
	g.mu.Unlock()
	if live != 4 {
		t.Fatalf("after SetSeenCap(4): %d live entries", live)
	}
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSeenCacheBytesPerEntry pins what the seen-cache costs: filled to
// DefaultSeenCap it holds under 64 B of heap an entry, and four caps'
// worth of further traffic through it adds nothing.
func TestSeenCacheBytesPerEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the heap")
	}
	g := NewGossiper(&nullTransport{self: "n0"}, nil, 1, rand.New(rand.NewSource(1)))
	fill := func(from, to int) {
		var buf [8]byte
		for i := from; i < to; i++ {
			binary.BigEndian.PutUint64(buf[:], uint64(i))
			if !g.markSeen(cryptoutil.HashBytes(buf[:])) {
				t.Fatalf("fresh id %d reported as duplicate", i)
			}
		}
	}
	empty := liveHeap()
	fill(0, DefaultSeenCap)
	atCap := liveHeap()
	perEntry := (float64(atCap) - float64(empty)) / DefaultSeenCap
	peak := atCap
	for k := 1; k <= 4; k++ {
		fill(k*DefaultSeenCap, (k+1)*DefaultSeenCap)
		peak = max(peak, liveHeap())
	}
	g.mu.Lock()
	live, ring := len(g.seen), len(g.seenQ)
	g.mu.Unlock()
	t.Logf("seen-cache at its cap of %d: %d KiB, %.1f B an entry; after 4 caps more: at most %d KiB",
		DefaultSeenCap, (atCap-empty)>>10, perEntry, (peak-empty)>>10)
	if live != DefaultSeenCap || ring != DefaultSeenCap {
		t.Fatalf("%d live entries, %d ring slots, cap %d", live, ring, DefaultSeenCap)
	}
	if perEntry > 64 {
		t.Fatalf("a seen-cache entry costs %.1f B of heap, want at most 64", perEntry)
	}
	if grown := float64(peak) - float64(atCap); grown > 0.05*float64(atCap-empty) {
		t.Fatalf("the full cache grew by %.0f B over four caps' worth of traffic", grown)
	}
	runtime.KeepAlive(g)
}

// TestSeenKeyIsHalfTheID pins the documented collision case: two IDs
// that agree in their first 16 bytes are one entry, and nothing shorter
// than that is.
func TestSeenKeyIsHalfTheID(t *testing.T) {
	g := NewGossiper(&nullTransport{self: "n0"}, nil, 1, rand.New(rand.NewSource(1)))
	id := cryptoutil.HashBytes([]byte("item"))
	tail, prefix := id, id
	for i := 16; i < len(tail); i++ {
		tail[i] ^= 0xff
	}
	prefix[15] ^= 0x01
	if !g.markSeen(id) {
		t.Fatal("fresh id reported as duplicate")
	}
	if g.markSeen(tail) {
		t.Fatal("an id differing only after byte 16 was taken as fresh: the key is longer than documented")
	}
	if !g.markSeen(prefix) {
		t.Fatal("an id differing in byte 15 was suppressed: the key is shorter than 16 bytes")
	}
}
