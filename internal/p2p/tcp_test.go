package p2p

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcsledger/internal/metrics"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

// scrape reads the transport's series the way /metrics and the benchmark
// do: by name, from a registry the transport registered into.
func scrape(tr *TCPTransport) map[string]int64 {
	reg := metrics.NewRegistry()
	tr.RegisterMetrics(reg)
	return reg.Snapshot()
}

// series reads one of the transport's series (see scrape).
func series(tr *TCPTransport, name string) int64 { return scrape(tr)[name] }

// TestTCPConcurrentSendStress fans messages from many goroutines across
// a 3-node full TCP mesh. The seed transport shared one json.Encoder
// per peer with no lock held during Encode, so concurrent senders
// interleaved bytes and corrupted the length-delimited stream; the
// per-peer writer must deliver every message with zero decode errors.
func TestTCPConcurrentSendStress(t *testing.T) {
	const (
		nodes      = 3
		goroutines = 8
		perSender  = 40
	)
	cfg := TCPConfig{QueueSize: 4096}

	counts := make([]atomic.Uint64, nodes)
	trs := make([]*TCPTransport, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		tr, err := NewTCPTransportConfig(NodeName(i), "127.0.0.1:0", func(m Message) {
			counts[i].Add(1)
		}, cfg)
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		defer tr.Close()
		trs[i] = tr
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
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(from, gid int) {
				defer wg.Done()
				for k := 0; k < perSender; k++ {
					payload := []byte(fmt.Sprintf("msg-%d-%d-%d", from, gid, k))
					for j := 0; j < nodes; j++ {
						if j == from {
							continue
						}
						if err := trs[from].Send(NodeName(j), Message{Type: "stress", Data: payload}); err != nil {
							t.Errorf("send %d→%d: %v", from, j, err)
							return
						}
					}
				}
			}(i, g)
		}
	}
	wg.Wait()

	want := uint64((nodes - 1) * goroutines * perSender)
	for i := 0; i < nodes; i++ {
		i := i
		waitFor(t, 10*time.Second, func() bool { return counts[i].Load() == want },
			fmt.Sprintf("node %d received %d/%d", i, counts[i].Load(), want))
	}
	for i, tr := range trs {
		if n := series(tr, "p2p_recv_errors_total"); n != 0 {
			t.Fatalf("node %d: %d decode errors (stream corrupted)", i, n)
		}
		if n := series(tr, "p2p_dropped_total"); n != 0 {
			t.Fatalf("node %d: %d drops", i, n)
		}
		if n := series(tr, "p2p_sent_total"); n != int64(want) {
			t.Fatalf("node %d: sent %d, want %d", i, n, want)
		}
	}
}

// TestTCPReconnectAfterPeerRestart kills a peer, restarts a fresh
// transport on the same address, and checks the per-peer writer
// reconnects with backoff and resumes delivery.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	cfg := TCPConfig{
		DialTimeout: 500 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
	}
	a, err := NewTCPTransportConfig("a", "127.0.0.1:0", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var got1 atomic.Uint64
	b, err := NewTCPTransportConfig("b", "127.0.0.1:0", func(Message) { got1.Add(1) }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bAddr := b.Addr()
	a.AddPeer("b", bAddr)

	if err := a.Send("b", Message{Type: "ping"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return got1.Load() == 1 }, "first delivery")

	// Kill b; sends during the outage must not block the caller.
	if err := b.Close(); err != nil {
		t.Fatalf("close b: %v", err)
	}
	start := time.Now()
	_ = a.Send("b", Message{Type: "lost"})
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Send during outage blocked %v", d)
	}

	// Restart b on the same address (retry: the old socket may linger).
	var (
		b2   *TCPTransport
		got2 atomic.Uint64
	)
	for i := 0; i < 50; i++ {
		b2, err = NewTCPTransportConfig("b", bAddr, func(Message) { got2.Add(1) }, cfg)
		if err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restart b: %v", err)
	}
	defer b2.Close()

	// Keep sending until the writer reconnects and delivers.
	waitFor(t, 10*time.Second, func() bool {
		_ = a.Send("b", Message{Type: "ping2"})
		return got2.Load() > 0
	}, "delivery after restart")
	if series(a, "p2p_reconnects_total") == 0 {
		t.Fatalf("expected reconnects > 0, registry %v", scrape(a))
	}
}

// TestTCPSendNonBlockingAndQueueFull checks that Send to an unreachable
// peer returns immediately (no dial on the caller path) and that a full
// bounded queue degrades to counted drops instead of stalling.
func TestTCPSendNonBlockingAndQueueFull(t *testing.T) {
	cfg := TCPConfig{
		QueueSize:   1,
		DialTimeout: 200 * time.Millisecond,
		BackoffBase: time.Second, // park the writer in backoff after the first failed dial
		BackoffMax:  time.Second,
		MaxAttempts: 2,
	}
	a, err := NewTCPTransportConfig("a", "127.0.0.1:0", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// 127.0.0.1:1 refuses connections; the writer fails its dial and
	// parks in backoff, so the 1-slot queue fills.
	a.AddPeer("dead", "127.0.0.1:1")

	start := time.Now()
	var queueFull int
	for i := 0; i < 50; i++ {
		if err := a.Send("dead", Message{Type: "x"}); errors.Is(err, ErrQueueFull) {
			queueFull++
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("50 sends to unreachable peer took %v (must not block on I/O)", d)
	}
	if queueFull == 0 {
		t.Fatal("expected ErrQueueFull with a 1-slot queue and a dead peer")
	}
	if series(a, "p2p_dropped_total") == 0 {
		t.Fatalf("expected dropped > 0, registry %v", scrape(a))
	}
}

// TestTCPRetriesExhaustedDropsMessage checks a message bound for a dead
// peer is dropped after MaxAttempts, keeping the writer responsive.
func TestTCPRetriesExhaustedDropsMessage(t *testing.T) {
	cfg := TCPConfig{
		DialTimeout: 100 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		MaxAttempts: 2,
	}
	a, err := NewTCPTransportConfig("a", "127.0.0.1:0", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer("dead", "127.0.0.1:1")
	if err := a.Send("dead", Message{Type: "x"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return series(a, "p2p_dropped_total") >= 1 }, "message dropped after retries")
	if series(a, "p2p_dial_failures_total") < 2 {
		t.Fatalf("expected >=2 dial failures, registry %v", scrape(a))
	}
}

// TestTCPAddPeerUpdatesAddress checks that re-adding a peer with a new
// address redirects the writer's next reconnect.
func TestTCPAddPeerUpdatesAddress(t *testing.T) {
	cfg := TCPConfig{
		DialTimeout: 200 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
	a, err := NewTCPTransportConfig("a", "127.0.0.1:0", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var got atomic.Uint64
	b, err := NewTCPTransportConfig("b", "127.0.0.1:0", func(Message) { got.Add(1) }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a.AddPeer("b", "127.0.0.1:1") // wrong address first
	_ = a.Send("b", Message{Type: "x"})
	a.AddPeer("b", b.Addr()) // correct address
	waitFor(t, 10*time.Second, func() bool {
		_ = a.Send("b", Message{Type: "x"})
		return got.Load() > 0
	}, "delivery after address update")
}

// TestTCPMetricsCounters checks the registry view of a simple exchange.
func TestTCPMetricsCounters(t *testing.T) {
	var got atomic.Uint64
	a, err := NewTCPTransport("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPTransport("b", "127.0.0.1:0", func(Message) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())
	for i := 0; i < 5; i++ {
		if err := a.Send("b", Message{Type: "ping"}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 5 }, "delivery")

	snapA := scrape(a)
	if snapA["p2p_enqueued_total"] != 5 || snapA["p2p_sent_total"] != 5 {
		t.Fatalf("sender snapshot %v", snapA)
	}
	if snapA["p2p_conns_outbound"] != 1 || snapA["p2p_peer_writers"] != 1 {
		t.Fatalf("sender gauges %v", snapA)
	}
	waitFor(t, 5*time.Second, func() bool {
		return scrape(b)["p2p_recv_total"] == 5
	}, "receiver counter")
	if snapB := scrape(b); snapB["p2p_conns_inbound"] != 1 {
		t.Fatalf("receiver gauges %v", snapB)
	}

	// Close drains the gauges.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if snap := scrape(a); snap["p2p_conns_outbound"] != 0 || snap["p2p_peer_writers"] != 0 {
		t.Fatalf("post-close gauges %v", snap)
	}
}

// TestTCPScrapeWhileSending scrapes a registry the sender registered into
// from several goroutines while it sends (run it under -race): within the
// run p2p_sent_total never decreases and ends at the number of messages
// sent, and once both ends are closed their connection and writer gauges
// read 0.
func TestTCPScrapeWhileSending(t *testing.T) {
	const senders, perSender = 4, 100
	cfg := TCPConfig{QueueSize: senders * perSender}
	a, err := NewTCPTransportConfig("a", "127.0.0.1:0", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var got atomic.Uint64
	b, err := NewTCPTransportConfig("b", "127.0.0.1:0", func(Message) { got.Add(1) }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())
	reg := metrics.NewRegistry()
	a.RegisterMetrics(reg)

	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for range 3 {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			var last int64
			for {
				sent := reg.Snapshot()["p2p_sent_total"]
				if sent < last {
					t.Errorf("p2p_sent_total went from %d to %d", last, sent)
					return
				}
				last = sent
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perSender {
				if err := a.Send("b", Message{Type: "ping"}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// A message is counted sent once its Write returns, which may be after
	// the receiver has it: wait for the count, then check nothing else moved.
	waitFor(t, 10*time.Second, func() bool { return reg.Snapshot()["p2p_sent_total"] == senders*perSender }, "sent count")
	close(done)
	scrapers.Wait()
	waitFor(t, 10*time.Second, func() bool { return got.Load() == senders*perSender }, "delivery")
	if snap := reg.Snapshot(); snap["p2p_sent_total"] != senders*perSender || snap["p2p_dropped_total"] != 0 {
		t.Fatalf("after %d sends: %v", senders*perSender, snap)
	}

	for _, tr := range []*TCPTransport{a, b} {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for name, snap := range map[string]map[string]int64{"sender": reg.Snapshot(), "receiver": scrape(b)} {
		for _, gauge := range []string{"p2p_conns_outbound", "p2p_conns_inbound", "p2p_peer_writers"} {
			if snap[gauge] != 0 {
				t.Errorf("%s: %s = %d after Close", name, gauge, snap[gauge])
			}
		}
	}
}
