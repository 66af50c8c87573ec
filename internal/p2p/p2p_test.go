package p2p

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"dcsledger/internal/simclock"
)

func TestMuxLongestPrefixDispatch(t *testing.T) {
	m := NewMux()
	var got string
	m.Handle("pbft", func(msg Message) { got = "pbft" })
	m.Handle("pbft/view", func(msg Message) { got = "pbft/view" })
	m.Handle("gossip", func(msg Message) { got = "gossip" })

	m.Dispatch(Message{Type: "pbft/prepare"})
	if got != "pbft" {
		t.Fatalf("got %q", got)
	}
	m.Dispatch(Message{Type: "pbft/view-change"})
	if got != "pbft/view" {
		t.Fatalf("got %q", got)
	}
	got = ""
	m.Dispatch(Message{Type: "unknown"})
	if got != "" {
		t.Fatal("unroutable message must be dropped")
	}
}

func TestSimNetworkDelivery(t *testing.T) {
	sim := simclock.NewSimulator()
	net := NewSimNetwork(sim, 1, WithLatency(100*time.Millisecond))
	var at time.Time
	var gotFrom NodeID
	if _, err := net.Join("a", nil); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if _, err := net.Join("b", func(m Message) {
		at = sim.Now()
		gotFrom = m.From
	}); err != nil {
		t.Fatalf("Join: %v", err)
	}
	epA := must(t, net, "a")
	if err := epA.Send("b", Message{Type: "x", Data: []byte("hi")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	sim.Run()
	if gotFrom != "a" {
		t.Fatalf("From = %q", gotFrom)
	}
	if d := at.Sub(time.Unix(0, 0).UTC()); d != 100*time.Millisecond {
		t.Fatalf("delivered at %v, want 100ms", d)
	}
}

func must(t *testing.T, n *SimNetwork, id NodeID) *SimEndpoint {
	t.Helper()
	ep, ok := n.endpoints[id]
	if !ok {
		t.Fatalf("endpoint %s missing", id)
	}
	return ep
}

func TestSimNetworkErrors(t *testing.T) {
	sim := simclock.NewSimulator()
	net := NewSimNetwork(sim, 1)
	ep, err := net.Join("a", nil)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if _, err := net.Join("a", nil); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("want ErrDuplicateID, got %v", err)
	}
	if err := ep.Send("ghost", Message{}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("want ErrUnknownPeer, got %v", err)
	}
}

func TestSimNetworkPartitionAndHeal(t *testing.T) {
	sim := simclock.NewSimulator()
	net := NewSimNetwork(sim, 1)
	var bGot, cGot int
	epA, _ := net.Join("a", nil)
	if _, err := net.Join("b", func(Message) { bGot++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join("c", func(Message) { cGot++ }); err != nil {
		t.Fatal(err)
	}
	net.Partition([]NodeID{"a", "b"}, []NodeID{"c"})
	_ = epA.Send("b", Message{Type: "x"})
	_ = epA.Send("c", Message{Type: "x"})
	sim.Run()
	if bGot != 1 || cGot != 0 {
		t.Fatalf("partition: b=%d c=%d", bGot, cGot)
	}
	net.Heal()
	_ = epA.Send("c", Message{Type: "x"})
	sim.Run()
	if cGot != 1 {
		t.Fatal("heal must restore delivery")
	}
	st := net.Stats()
	if st.Sent != 3 || st.Delivered != 2 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSimNetworkDropRate(t *testing.T) {
	sim := simclock.NewSimulator()
	net := NewSimNetwork(sim, 7, WithDropRate(0.5))
	delivered := 0
	epA, _ := net.Join("a", nil)
	if _, err := net.Join("b", func(Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	const total = 1000
	for i := 0; i < total; i++ {
		_ = epA.Send("b", Message{Type: "x"})
	}
	sim.Run()
	if delivered < 400 || delivered > 600 {
		t.Fatalf("drop rate 0.5 delivered %d/%d", delivered, total)
	}
}

func TestRandomTopologyConnectedAndDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ids := make([]NodeID, 30)
	for i := range ids {
		ids[i] = NodeName(i)
	}
	topo := RandomTopology(ids, 4, rng)
	// Degree check.
	for id, ns := range topo {
		if len(ns) < 2 {
			t.Fatalf("node %s degree %d < 2", id, len(ns))
		}
		for _, nb := range ns {
			if nb == id {
				t.Fatalf("self loop at %s", id)
			}
		}
	}
	// Connectivity via BFS.
	visited := map[NodeID]bool{ids[0]: true}
	queue := []NodeID{ids[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range topo[cur] {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(visited) != len(ids) {
		t.Fatalf("topology disconnected: reached %d/%d", len(visited), len(ids))
	}
	// Symmetry.
	for id, ns := range topo {
		for _, nb := range ns {
			found := false
			for _, back := range topo[nb] {
				if back == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %s→%s not symmetric", id, nb)
			}
		}
	}
}

func TestRandomTopologyTinyNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := RandomTopology(nil, 3, rng); len(got) != 0 {
		t.Fatal("empty id set should give empty topology")
	}
	one := RandomTopology([]NodeID{"solo"}, 3, rng)
	if len(one["solo"]) != 0 {
		t.Fatal("single node has no neighbors")
	}
	two := RandomTopology([]NodeID{"a", "b"}, 5, rng)
	if len(two["a"]) != 1 || len(two["b"]) != 1 {
		t.Fatalf("two-node topology: %v", two)
	}
}

// buildGossipNetwork wires n nodes with gossipers over a random overlay.
func buildGossipNetwork(t *testing.T, sim *simclock.Simulator, n, fanout int, opts ...SimOption) (map[NodeID]*Gossiper, *SimNetwork) {
	t.Helper()
	net := NewSimNetwork(sim, 42, opts...)
	rng := rand.New(rand.NewSource(99))
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeName(i)
	}
	topo := RandomTopology(ids, 4, rng)
	gossipers := make(map[NodeID]*Gossiper, n)
	for _, id := range ids {
		id := id
		mux := NewMux()
		ep, err := net.Join(id, mux.Dispatch)
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		g := NewGossiper(ep, topo[id], fanout, rand.New(rand.NewSource(int64(len(id)*7)+1)))
		mux.Handle(GossipMsgType, g.HandleMessage)
		gossipers[id] = g
	}
	return gossipers, net
}

func TestGossipReachesAllPeers(t *testing.T) {
	sim := simclock.NewSimulator()
	gossipers, _ := buildGossipNetwork(t, sim, 25, 4)
	received := make(map[NodeID]string)
	for id, g := range gossipers {
		id := id
		g.Subscribe("tx", func(from NodeID, payload []byte) {
			received[id] = string(payload)
		})
	}
	gossipers[NodeName(0)].Publish("tx", []byte("hello ledger"))
	sim.Run()
	if len(received) != 25 {
		t.Fatalf("gossip reached %d/25 nodes", len(received))
	}
	for id, v := range received {
		if v != "hello ledger" {
			t.Fatalf("node %s got %q", id, v)
		}
	}
}

func TestGossipDeliversOncePerNode(t *testing.T) {
	sim := simclock.NewSimulator()
	gossipers, _ := buildGossipNetwork(t, sim, 10, 8)
	counts := make(map[NodeID]int)
	for id, g := range gossipers {
		id := id
		g.Subscribe("blk", func(from NodeID, payload []byte) { counts[id]++ })
	}
	gossipers[NodeName(3)].Publish("blk", []byte("block-1"))
	// Publishing the same payload again must be suppressed.
	gossipers[NodeName(3)].Publish("blk", []byte("block-1"))
	sim.Run()
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("node %s delivered %d times", id, c)
		}
	}
}

func TestGossipTopicIsolation(t *testing.T) {
	sim := simclock.NewSimulator()
	gossipers, _ := buildGossipNetwork(t, sim, 5, 4)
	var wrong, right int
	g := gossipers[NodeName(1)]
	g.Subscribe("a", func(NodeID, []byte) { right++ })
	g.Subscribe("b", func(NodeID, []byte) { wrong++ })
	gossipers[NodeName(0)].Publish("a", []byte("payload"))
	sim.Run()
	if right != 1 || wrong != 0 {
		t.Fatalf("topic isolation broken: right=%d wrong=%d", right, wrong)
	}
}

func TestGossipSurvivesLoss(t *testing.T) {
	// With 20% loss and redundant fanout, gossip should still reach
	// (nearly) everyone; require at least 90%.
	sim := simclock.NewSimulator()
	gossipers, _ := buildGossipNetwork(t, sim, 40, 4, WithDropRate(0.2))
	reached := 0
	for _, g := range gossipers {
		g.Subscribe("tx", func(NodeID, []byte) { reached++ })
	}
	gossipers[NodeName(0)].Publish("tx", []byte("resilient"))
	sim.Run()
	if reached < 36 {
		t.Fatalf("gossip under loss reached only %d/40", reached)
	}
}

func TestGossipMalformedMessageIgnored(t *testing.T) {
	sim := simclock.NewSimulator()
	gossipers, net := buildGossipNetwork(t, sim, 3, 2)
	_ = gossipers
	ep, err := net.Join("attacker", nil)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := ep.Send(NodeName(0), Message{Type: GossipMsgType, Data: []byte("not json")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	sim.Run() // must not panic
}

func TestTCPTransportRoundTrip(t *testing.T) {
	gotA := make(chan Message, 4)
	gotB := make(chan Message, 4)
	a, err := NewTCPTransport("a", "127.0.0.1:0", func(m Message) { gotA <- m })
	if err != nil {
		t.Fatalf("NewTCPTransport: %v", err)
	}
	defer a.Close()
	b, err := NewTCPTransport("b", "127.0.0.1:0", func(m Message) { gotB <- m })
	if err != nil {
		t.Fatalf("NewTCPTransport: %v", err)
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())

	if err := a.Send("b", Message{Type: "ping", Data: []byte("1")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case m := <-gotB:
		if m.From != "a" || m.Type != "ping" {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for message")
	}
	// Reply over the reverse direction, and reuse connections.
	for i := 0; i < 3; i++ {
		if err := b.Send("a", Message{Type: "pong"}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-gotA:
		case <-time.After(2 * time.Second):
			t.Fatal("timeout waiting for pong")
		}
	}
	if len(a.Peers()) != 1 || a.Peers()[0] != "b" {
		t.Fatalf("Peers = %v", a.Peers())
	}
}

func TestTCPTransportErrors(t *testing.T) {
	a, err := NewTCPTransport("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("NewTCPTransport: %v", err)
	}
	if err := a.Send("ghost", Message{}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("want ErrUnknownPeer, got %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Send("ghost", Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
