package p2p

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestGossipSeenCachePoisoningRejected is the regression test for the
// seen-cache poisoning censorship vector: a malicious peer pre-sends a
// bogus payload under the ID of a legitimate item. The seed gossiper
// trusted the wire ID, marked it seen, and then suppressed the real
// item as a duplicate. The fix recomputes the ID from (topic, payload)
// and drops mismatches before they can touch the seen-cache.
func TestGossipSeenCachePoisoningRejected(t *testing.T) {
	tr := &nullTransport{self: "self", peers: []NodeID{"b"}}
	g := NewGossiper(tr, []NodeID{"b"}, 1, rand.New(rand.NewSource(1)))

	var got atomic.Value
	g.Subscribe("tx", func(_ NodeID, payload []byte) { got.Store(string(payload)) })

	legit := []byte("the real transaction")
	legitID := envelopeID("tx", legit)

	// Attacker claims the legitimate ID over junk bytes.
	g.HandleMessage(Message{From: "evil", Type: GossipMsgType, Data: encodeEnvelope(envelope{
		ID:      legitID,
		Topic:   "tx",
		Payload: []byte("junk"),
	})})
	if st := g.Stats(); st.IDMismatch != 1 || st.Delivered != 0 {
		t.Fatalf("poison attempt: stats %+v, want 1 mismatch, 0 delivered", st)
	}
	if got.Load() != nil {
		t.Fatalf("poison payload delivered: %q", got.Load())
	}

	// The real item must still deliver (the seed dropped it here).
	g.HandleMessage(Message{From: "honest", Type: GossipMsgType, Data: encodeEnvelope(envelope{
		ID:      legitID,
		Topic:   "tx",
		Payload: legit,
	})})
	if v, _ := got.Load().(string); v != string(legit) {
		t.Fatalf("legitimate item suppressed after poison attempt: got %q", v)
	}
	if st := g.Stats(); st.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", st.Delivered)
	}
}

// TestGossipHopTTL verifies the forwarding TTL: an envelope at or above
// maxHops is delivered (it is still new information) but not forwarded,
// so a forged high-fanout envelope cannot circulate indefinitely across
// seen-cache evictions.
func TestGossipHopTTL(t *testing.T) {
	mk := func(hops uint8, payload string) []byte {
		return encodeEnvelope(envelope{
			ID:      envelopeID("t", []byte(payload)),
			Topic:   "t",
			Payload: []byte(payload),
			Hops:    hops,
		})
	}

	tr := &nullTransport{self: "self", peers: []NodeID{"b"}}
	g := NewGossiper(tr, []NodeID{"b"}, 1, rand.New(rand.NewSource(1)))

	g.HandleMessage(Message{From: "peer", Type: GossipMsgType, Data: mk(DefaultMaxHops-1, "under")})
	if st := g.Stats(); st.Forwarded != 1 || st.TTLExpired != 0 {
		t.Fatalf("one hop under the TTL: %+v, want forwarded", st)
	}
	g.HandleMessage(Message{From: "peer", Type: GossipMsgType, Data: mk(DefaultMaxHops, "at")})
	if st := g.Stats(); st.Forwarded != 1 || st.TTLExpired != 1 || st.Delivered != 2 {
		t.Fatalf("at the TTL: %+v, want delivered but not forwarded", st)
	}
	g.HandleMessage(Message{From: "peer", Type: GossipMsgType, Data: mk(255, "over")})
	if st := g.Stats(); st.Forwarded != 1 || st.TTLExpired != 2 || st.Delivered != 3 {
		t.Fatalf("hops=255: %+v, want delivered but not forwarded", st)
	}
}

// TestGossipHopCountIncrements checks the forwarded copy carries Hops+1.
func TestGossipHopCountIncrements(t *testing.T) {
	var forwarded atomic.Value
	tr := &captureTransport{self: "self"}
	g := NewGossiper(tr, []NodeID{"b"}, 1, rand.New(rand.NewSource(1)))
	tr.onSend = func(m Message) {
		env, err := decodeEnvelope(m.Data)
		if err != nil {
			t.Errorf("forwarded envelope does not decode: %v", err)
			return
		}
		forwarded.Store(env.Hops)
	}
	payload := []byte("x")
	g.HandleMessage(Message{From: "peer", Type: GossipMsgType, Data: encodeEnvelope(envelope{
		ID: envelopeID("t", payload), Topic: "t", Payload: payload, Hops: 2,
	})})
	if h, _ := forwarded.Load().(uint8); h != 3 {
		t.Fatalf("forwarded hops = %d, want 3", h)
	}
}

// captureTransport hands each sent message to a callback.
type captureTransport struct {
	self   NodeID
	onSend func(Message)
}

func (c *captureTransport) Self() NodeID { return c.self }
func (c *captureTransport) Send(_ NodeID, m Message) error {
	if c.onSend != nil {
		c.onSend(m)
	}
	return nil
}
func (c *captureTransport) Peers() []NodeID { return []NodeID{"b"} }

// TestOversizeInboundFrameDropped is the regression test for the
// unbounded-read OOM vector: the seed readLoop json-decoded an
// attacker-controlled stream with no size cap, so one giant message
// could exhaust memory. The frame codec must reject the frame from its
// header alone — before any body allocation — count it, and drop the
// connection.
func TestOversizeInboundFrameDropped(t *testing.T) {
	tr, err := NewTCPTransportConfig("self", "127.0.0.1:0", nil, TCPConfig{
		MaxFrameSize: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Header claims a 1 GiB body; no body follows.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}

	// The transport must close the connection (read returns EOF) and
	// count the oversize frame without ever reading a body.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection stayed open after oversize frame")
	}
	waitFor(t, 5*time.Second, func() bool {
		return series(tr, "p2p_recv_oversize_total") == 1
	}, "oversize counter never reached 1")
	if recv := series(tr, "p2p_recv_total"); recv != 0 {
		t.Fatalf("oversize frame delivered %d messages", recv)
	}
}

// TestInboundIdleReadDeadline: a peer that connects and sends nothing
// must be disconnected once ReadIdleTimeout elapses, freeing the reader
// goroutine and socket.
func TestInboundIdleReadDeadline(t *testing.T) {
	tr, err := NewTCPTransportConfig("self", "127.0.0.1:0", nil, TCPConfig{
		ReadIdleTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection was not dropped")
	}
	waitFor(t, 5*time.Second, func() bool {
		return series(tr, "p2p_conns_inbound") == 0
	}, "inbound conn still tracked after idle drop")
}

// TestGarbageInboundBytesDropConnection: a stream that is not the frame
// protocol (e.g. an HTTP request) must be counted as a receive error
// and dropped, never looped on.
func TestGarbageInboundBytesDropConnection(t *testing.T) {
	tr, err := NewTCPTransportConfig("self", "127.0.0.1:0", nil, TCPConfig{
		MaxFrameSize: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A plausible small frame length followed by a body that is not a
	// valid Message.
	frame := make([]byte, 4+8)
	binary.BigEndian.PutUint32(frame, 8)
	copy(frame[4:], "GET / HT")
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection stayed open after garbage frame")
	}
	waitFor(t, 5*time.Second, func() bool {
		return series(tr, "p2p_recv_errors_total") >= 1
	}, "garbage frame not counted as receive error")
}
