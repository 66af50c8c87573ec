package p2p

import (
	"errors"
	"testing"
	"time"

	"dcsledger/internal/simclock"
)

// TestSimNetworkSelfSend: a node may send to itself; the message goes
// through the normal latency pipeline and is counted like any other.
func TestSimNetworkSelfSend(t *testing.T) {
	sim := simclock.NewSimulator()
	net := NewSimNetwork(sim, 1, WithLatency(10*time.Millisecond))
	var got []Message
	ep, err := net.Join("a", func(m Message) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send("a", Message{Type: "x", Data: []byte("self")}); err != nil {
		t.Fatalf("self-send: %v", err)
	}
	sim.Run()
	if len(got) != 1 {
		t.Fatalf("self-send delivered %d messages, want 1", len(got))
	}
	if got[0].From != "a" || string(got[0].Data) != "self" {
		t.Fatalf("self-send message mangled: %+v", got[0])
	}
	st := net.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Fatalf("self-send stats = %+v", st)
	}
}

// TestSimNetworkJitterWindow: every delivery lands inside
// [latency, latency+jitter), and the jitter is actually drawn.
func TestSimNetworkJitterWindow(t *testing.T) {
	sim := simclock.NewSimulator()
	net := NewSimNetwork(sim, 7,
		WithLatency(10*time.Millisecond), WithJitter(50*time.Millisecond))
	start := sim.Now()
	var at []time.Duration
	epA, _ := net.Join("a", nil)
	if _, err := net.Join("b", func(Message) { at = append(at, sim.Now().Sub(start)) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := epA.Send("b", Message{Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if len(at) != 20 {
		t.Fatalf("deliveries: %d, want 20", len(at))
	}
	jittered := false
	for _, d := range at {
		if d < 10*time.Millisecond || d >= 60*time.Millisecond {
			t.Fatalf("delivery at %v outside base+jitter window", d)
		}
		if d != 10*time.Millisecond {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("deliveries never jittered; jitter not applied")
	}
}

// TestSimNetworkDropAccounting: every send is counted exactly once as
// Delivered or Dropped, and Bytes counts payloads of all sends, dropped
// or not.
func TestSimNetworkDropAccounting(t *testing.T) {
	sim := simclock.NewSimulator()
	net := NewSimNetwork(sim, 42, WithDropRate(0.3))
	epA, _ := net.Join("a", nil)
	delivered := 0
	if _, err := net.Join("b", func(Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	const total = 500
	payload := []byte("12345678") // 8 bytes
	for i := 0; i < total; i++ {
		if err := epA.Send("b", Message{Type: "x", Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	st := net.Stats()
	if st.Sent != total {
		t.Fatalf("Sent = %d, want %d", st.Sent, total)
	}
	if st.Delivered+st.Dropped != total {
		t.Fatalf("Delivered(%d) + Dropped(%d) != Sent(%d)", st.Delivered, st.Dropped, st.Sent)
	}
	if uint64(delivered) != st.Delivered {
		t.Fatalf("handler saw %d, stats say Delivered=%d", delivered, st.Delivered)
	}
	if st.Dropped < 100 || st.Dropped > 200 {
		t.Fatalf("drop rate 0.3 dropped %d/%d", st.Dropped, total)
	}
	if st.Bytes != uint64(total*len(payload)) {
		t.Fatalf("Bytes = %d, want %d (dropped sends still count)", st.Bytes, total*len(payload))
	}
}

// TestSimNetworkPartitionUnknownPeer: partitioning may name ids that
// never joined — they simply occupy a group. Known nodes still respect
// the partition, and sends to the unknown id keep failing ErrUnknownPeer.
func TestSimNetworkPartitionUnknownPeer(t *testing.T) {
	sim := simclock.NewSimulator()
	net := NewSimNetwork(sim, 1)
	epA, _ := net.Join("a", nil)
	got := 0
	if _, err := net.Join("b", func(Message) { got++ }); err != nil {
		t.Fatal(err)
	}
	net.Partition([]NodeID{"a", "ghost"}, []NodeID{"b"})
	if err := epA.Send("ghost", Message{Type: "x"}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to unknown peer: err = %v, want ErrUnknownPeer", err)
	}
	if err := epA.Send("b", Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if got != 0 {
		t.Fatal("partition with unknown member must still cut a↔b")
	}
	net.Heal()
	if err := epA.Send("b", Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if got != 1 {
		t.Fatalf("after heal got %d deliveries, want 1", got)
	}
}

// TestSimNetworkLeaveRejoin pins the queued-message semantics: in-flight
// messages to a departed node are dropped at delivery time, sends to a
// departed id are Sent+Dropped without error, rejoin requires a prior
// leave, and the fresh incarnation only sees post-rejoin traffic.
func TestSimNetworkLeaveRejoin(t *testing.T) {
	sim := simclock.NewSimulator()
	net := NewSimNetwork(sim, 1, WithLatency(100*time.Millisecond))
	epA, _ := net.Join("a", nil)
	oldInbox, newInbox := 0, 0
	if _, err := net.Join("b", func(Message) { oldInbox++ }); err != nil {
		t.Fatal(err)
	}

	if err := net.Leave("never-joined"); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("Leave(unknown) = %v, want ErrUnknownPeer", err)
	}
	if _, err := net.Rejoin("never-joined", nil); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("Rejoin(never joined) = %v, want ErrUnknownPeer", err)
	}
	if _, err := net.Rejoin("b", nil); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("Rejoin(still joined) = %v, want ErrDuplicateID", err)
	}

	// Put a message in flight, then leave before it lands.
	if err := epA.Send("b", Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(50 * time.Millisecond)
	if err := net.Leave("b"); err != nil {
		t.Fatal(err)
	}
	// Send to the departed node: no error, accounted as loss.
	if err := epA.Send("b", Message{Type: "x"}); err != nil {
		t.Fatalf("send to departed peer: %v", err)
	}
	sim.RunFor(time.Second)
	if oldInbox != 0 {
		t.Fatalf("departed node received %d messages, want 0", oldInbox)
	}
	st := net.Stats()
	if st.Sent != 2 || st.Dropped != 2 || st.Delivered != 0 {
		t.Fatalf("stats after leave = %+v, want 2 sent / 2 dropped", st)
	}

	// The departed incarnation's own endpoint sends into the void.
	staleEp := func() *SimEndpoint {
		// epA is live; re-create b's situation with a scratch peer.
		ep, err := net.Join("c", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Leave("c"); err != nil {
			t.Fatal(err)
		}
		return ep
	}()
	before := net.Stats()
	if err := staleEp.Send("a", Message{Type: "x"}); err != nil {
		t.Fatalf("send from departed endpoint: %v", err)
	}
	sim.RunFor(time.Second)
	after := net.Stats()
	if after.Sent != before.Sent+1 || after.Dropped != before.Dropped+1 {
		t.Fatalf("stale-endpoint send stats: before %+v after %+v", before, after)
	}

	// Rejoin with a fresh handler: only new traffic arrives.
	if _, err := net.Rejoin("b", func(Message) { newInbox++ }); err != nil {
		t.Fatal(err)
	}
	if err := epA.Send("b", Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second)
	if oldInbox != 0 || newInbox != 1 {
		t.Fatalf("after rejoin old=%d new=%d, want 0/1", oldInbox, newInbox)
	}
}

// TestSimNetworkBlockLink: directed blocks are asymmetric and cleared by
// Heal.
func TestSimNetworkBlockLink(t *testing.T) {
	sim := simclock.NewSimulator()
	net := NewSimNetwork(sim, 1)
	aGot, bGot := 0, 0
	epA, _ := net.Join("a", nil)
	var epB *SimEndpoint
	var err error
	if epB, err = net.Join("b", func(Message) { bGot++ }); err != nil {
		t.Fatal(err)
	}
	if err := net.SetHandler("a", func(Message) { aGot++ }); err != nil {
		t.Fatal(err)
	}
	net.BlockLink("a", "b")
	if err := epA.Send("b", Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := epB.Send("a", Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if bGot != 0 || aGot != 1 {
		t.Fatalf("asymmetric block: b got %d (want 0), a got %d (want 1)", bGot, aGot)
	}
	net.Heal()
	if err := epA.Send("b", Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if bGot != 1 {
		t.Fatalf("Heal must clear link blocks; b got %d", bGot)
	}
}

// TestSimNetworkRNGStreams: labelled streams are deterministic per
// (seed, label) and independent across labels.
func TestSimNetworkRNGStreams(t *testing.T) {
	sim := simclock.NewSimulator()
	netA := NewSimNetwork(sim, 99)
	netB := NewSimNetwork(sim, 99)
	netC := NewSimNetwork(sim, 100)
	seq := func(n *SimNetwork, label string) [4]int64 {
		r := n.RNGStream(label)
		var out [4]int64
		for i := range out {
			out[i] = r.Int63()
		}
		return out
	}
	if seq(netA, "actor/spam") != seq(netB, "actor/spam") {
		t.Fatal("same seed+label must give identical streams")
	}
	if seq(netA, "actor/spam") == seq(netA, "actor/churn") {
		t.Fatal("different labels must give different streams")
	}
	if seq(netA, "actor/spam") == seq(netC, "actor/spam") {
		t.Fatal("different seeds must give different streams")
	}
}
