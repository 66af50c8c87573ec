package p2p

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcsledger/internal/metrics"
	"dcsledger/internal/obs"
	"dcsledger/internal/wire"
)

// Transport errors.
var (
	// ErrClosed is returned by Send after the transport has been closed.
	ErrClosed = errors.New("p2p: transport closed")
	// ErrQueueFull is returned by Send when a peer's bounded outbound
	// queue is full; the message is counted as dropped, not delivered.
	// Gossip redundancy is expected to absorb such drops.
	ErrQueueFull = errors.New("p2p: peer send queue full")
)

// Default TCPConfig values.
const (
	DefaultDialTimeout  = 3 * time.Second
	DefaultWriteTimeout = 10 * time.Second
	DefaultQueueSize    = 256
	DefaultBackoffBase  = 50 * time.Millisecond
	DefaultBackoffMax   = 5 * time.Second
	DefaultMaxAttempts  = 4
	// DefaultReadIdleTimeout is how long an inbound connection may sit
	// with no complete frame before it is dropped, so a peer that opens
	// connections and trickles (or sends nothing) cannot pin reader
	// goroutines and sockets forever.
	DefaultReadIdleTimeout = 2 * time.Minute
)

// TCPConfig tunes the TCP transport. The zero value selects sane
// defaults for every field.
type TCPConfig struct {
	// DialTimeout bounds each connection attempt (default 3s).
	DialTimeout time.Duration
	// WriteTimeout bounds each message write (default 10s; 0 keeps the
	// default, negative disables deadlines).
	WriteTimeout time.Duration
	// QueueSize bounds each peer's outbound queue (default 256). When
	// the queue is full, Send drops the message and returns
	// ErrQueueFull instead of blocking the caller.
	QueueSize int
	// BackoffBase / BackoffMax shape the exponential reconnect backoff
	// (defaults 50ms / 5s). Each failed dial sleeps a jittered backoff
	// in [b/2, b] before the writer retries.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxAttempts is how many connect-and-write attempts one message
	// gets before it is dropped (default 4). Backoff state persists
	// across messages, so a dead peer costs at most MaxAttempts dials
	// per queued message.
	MaxAttempts int
	// MaxFrameSize caps inbound frame bodies (default DefaultMaxFrame).
	// A peer announcing a larger frame is counted
	// (p2p_recv_oversize_total) and disconnected before the body is
	// read, so one hostile message cannot OOM the node.
	MaxFrameSize uint32
	// ReadIdleTimeout bounds the gap between inbound frames (default
	// DefaultReadIdleTimeout; negative disables the deadline).
	ReadIdleTimeout time.Duration
	// Tracer receives per-message enqueue→flush spans
	// (obs.StageP2PFlush). Nil disables tracing; the stage's histogram
	// (p2p_enqueue_flush_seconds) is recorded either way.
	Tracer *obs.Tracer
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.QueueSize <= 0 {
		c.QueueSize = DefaultQueueSize
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.MaxFrameSize == 0 {
		c.MaxFrameSize = DefaultMaxFrame
	}
	if c.ReadIdleTimeout == 0 {
		c.ReadIdleTimeout = DefaultReadIdleTimeout
	}
	return c
}

// TCPTransport is the real-network transport used by the ledgerd
// daemon: length-prefixed binary frames (see docs/WIRE.md) over
// persistent TCP connections. Peers are added explicitly (static
// membership, as in a consortium network).
//
// Concurrency model: Send never performs I/O. Each peer gets a
// dedicated writer goroutine that exclusively owns the peer's
// connection and encode buffer, draining a bounded queue — each frame
// is written with a single Write call, so concurrent Sends can never
// interleave bytes on the wire. The writer
// dials lazily with a bounded timeout and reconnects with jittered
// exponential backoff; when the queue is full, Send drops the message
// (counted) rather than stalling the caller.
type TCPTransport struct {
	self    NodeID
	ln      net.Listener
	handler Handler
	cfg     TCPConfig

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	peers   map[NodeID]string // address book
	writers map[NodeID]*peerWriter
	conns   map[net.Conn]struct{} // inbound connections
	closed  bool

	wg sync.WaitGroup

	// Hot-path counts, exported by RegisterMetrics.
	enqueued, sent, dropped, sendErrors atomic.Uint64
	dialFailures, reconnects            atomic.Uint64
	recv, recvErrors, recvOversize      atomic.Uint64
	outbound, inbound, peerWriters      atomic.Int64
	obs                                 obs.Observer
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport starts listening on bindAddr with default TCPConfig
// and handles incoming messages with h.
func NewTCPTransport(self NodeID, bindAddr string, h Handler) (*TCPTransport, error) {
	return NewTCPTransportConfig(self, bindAddr, h, TCPConfig{})
}

// NewTCPTransportConfig starts listening on bindAddr with an explicit
// configuration.
func NewTCPTransportConfig(self NodeID, bindAddr string, h Handler, cfg TCPConfig) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", bindAddr)
	if err != nil {
		return nil, fmt.Errorf("p2p: listen %s: %w", bindAddr, err)
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCPTransport{
		self:    self,
		ln:      ln,
		handler: h,
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		peers:   make(map[NodeID]string),
		writers: make(map[NodeID]*peerWriter),
		conns:   make(map[net.Conn]struct{}),
		obs:     obs.NewObserver("", cfg.Tracer, obs.StageP2PFlush),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's listening address.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Self implements Transport.
func (t *TCPTransport) Self() NodeID { return t.self }

// RegisterMetrics exports the transport through reg: one collector for
// its p2p_* counts and gauges, and the p2p_enqueue_flush_seconds
// histogram.
func (t *TCPTransport) RegisterMetrics(reg *metrics.Registry) {
	t.obs.Register(reg)
	reg.Collect(func(emit func(string, int64)) {
		count := func(name string, v *atomic.Uint64) { emit(name, int64(v.Load())) }
		count("p2p_enqueued_total", &t.enqueued)
		count("p2p_sent_total", &t.sent)
		count("p2p_dropped_total", &t.dropped)
		count("p2p_send_errors_total", &t.sendErrors)
		count("p2p_dial_failures_total", &t.dialFailures)
		count("p2p_reconnects_total", &t.reconnects)
		count("p2p_recv_total", &t.recv)
		count("p2p_recv_errors_total", &t.recvErrors)
		count("p2p_recv_oversize_total", &t.recvOversize)
		emit("p2p_conns_outbound", t.outbound.Load())
		emit("p2p_conns_inbound", t.inbound.Load())
		emit("p2p_peer_writers", t.peerWriters.Load())
	})
}

// AddPeer records a peer's dialable address. Re-adding a peer updates
// the address; an existing writer picks the new address up on its next
// (re)connect.
func (t *TCPTransport) AddPeer(id NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	//dcslint:ignore unbounded address book is operator/bootstrap-populated, one entry per configured peer — not writable by remote input
	t.peers[id] = addr
}

// Peers implements Transport.
func (t *TCPTransport) Peers() []NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NodeID, 0, len(t.peers))
	for id := range t.peers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (t *TCPTransport) peerAddr(id NodeID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	addr, ok := t.peers[id]
	return addr, ok
}

// Send implements Transport. It enqueues the message on the peer's
// bounded outbound queue and returns immediately — all dialing and I/O
// happens on the peer's writer goroutine. A full queue drops the
// message and returns ErrQueueFull.
func (t *TCPTransport) Send(to NodeID, m Message) error {
	m.From = t.self
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	w, ok := t.writers[to]
	if !ok {
		if _, known := t.peers[to]; !known {
			t.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrUnknownPeer, to)
		}
		w = &peerWriter{
			t:     t,
			id:    to,
			queue: make(chan queuedMsg, t.cfg.QueueSize),
		}
		//dcslint:ignore unbounded keyed by the operator-configured address book (Send rejects unknown peers above), so at most len(peers) writers
		t.writers[to] = w
		t.peerWriters.Add(1)
		t.wg.Add(1)
		go w.run()
	}
	t.mu.Unlock()

	select {
	case w.queue <- queuedMsg{m: m, enqueued: time.Now()}:
		t.enqueued.Add(1)
		return nil
	default:
		t.dropped.Add(1)
		return fmt.Errorf("%w: %s", ErrQueueFull, to)
	}
}

// Close shuts the listener, writers, and all connections down and
// waits for every transport goroutine to exit.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, w := range t.writers {
		w.closeConnLocked()
	}
	for c := range t.conns {
		c.Close() //dcslint:ignore lockhold teardown: TCP Close never blocks and must run under t.mu so no new conn is tracked concurrently
	}
	t.mu.Unlock()
	t.cancel() // unblocks writer dials and backoff sleeps
	err := t.ln.Close()
	t.wg.Wait()
	return err
}

func (t *TCPTransport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.inbound.Add(1)
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.inbound.Add(-1)
		t.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	for {
		if t.cfg.ReadIdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(t.cfg.ReadIdleTimeout))
		}
		body, err := wire.ReadFrame(br, t.cfg.MaxFrameSize)
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				t.recvOversize.Add(1)
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !t.isClosed() {
				t.recvErrors.Add(1)
			}
			return
		}
		m, err := DecodeMessage(body)
		if err != nil {
			// A malformed frame means the peer does not speak the
			// protocol (or the stream desynced); drop the connection
			// rather than guess at a resync point.
			t.recvErrors.Add(1)
			return
		}
		t.recv.Add(1)
		if t.handler != nil {
			t.handler(m)
		}
	}
}

// queuedMsg stamps a message with its enqueue instant so the writer can
// report the enqueue→flush latency once the bytes hit the wire.
type queuedMsg struct {
	m        Message
	enqueued time.Time
}

// peerWriter owns one peer's outbound connection. Exactly one
// goroutine (run) touches conn/buf/backoff, so no locking is needed
// beyond the transport-level mu used when Close tears the conn down.
type peerWriter struct {
	t     *TCPTransport
	id    NodeID
	queue chan queuedMsg

	// Owned by the run goroutine. buf is the reusable frame-encode
	// scratch: steady-state sends allocate nothing.
	conn          net.Conn
	buf           []byte
	backoff       time.Duration
	everConnected bool

	// connMu lets Close nil the connection out from under a writer
	// that is blocked in a Write.
	connMu sync.Mutex
}

func (w *peerWriter) run() {
	defer w.t.wg.Done()
	defer func() {
		w.closeConn()
		w.t.peerWriters.Add(-1)
	}()
	for {
		select {
		case <-w.t.ctx.Done():
			return
		case q := <-w.queue:
			w.write(q)
		}
	}
}

// write delivers one message, connecting (and reconnecting) as needed.
// After cfg.MaxAttempts failed connect-or-write attempts the message
// is dropped so one dead peer cannot wedge the queue forever. A
// successful flush records the enqueue→flush latency (histogram
// p2p_enqueue_flush_seconds plus an optional tracer span), covering
// queue wait, dial/backoff time, and the write itself.
func (w *peerWriter) write(q queuedMsg) {
	t := w.t
	for attempt := 0; attempt < t.cfg.MaxAttempts; attempt++ {
		if t.ctx.Err() != nil {
			return
		}
		if w.conn == nil && !w.connect() {
			continue
		}
		if t.cfg.WriteTimeout > 0 {
			_ = w.conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
		}
		// Encode into the reusable scratch and write header+body with one
		// Write call so a frame can never interleave or tear.
		frame := AppendMessage(append(w.buf[:0], 0, 0, 0, 0), q.m)
		n := uint32(len(frame) - 4)
		frame[0], frame[1], frame[2], frame[3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
		w.buf = frame[:0]
		if _, err := w.conn.Write(frame); err != nil {
			t.sendErrors.Add(1)
			w.closeConn()
			continue
		}
		t.sent.Add(1)
		t.obs.Observe(obs.StageP2PFlush, q.enqueued, time.Since(q.enqueued), obs.At{Peer: string(w.id)})
		return
	}
	t.dropped.Add(1)
}

// connect performs one dial attempt; on failure it sleeps a jittered
// exponential backoff (interruptible by Close) and reports false.
func (w *peerWriter) connect() bool {
	t := w.t
	addr, ok := t.peerAddr(w.id)
	if !ok {
		w.sleepBackoff()
		return false
	}
	d := net.Dialer{Timeout: t.cfg.DialTimeout}
	conn, err := d.DialContext(t.ctx, "tcp", addr)
	if err != nil {
		t.dialFailures.Add(1)
		w.sleepBackoff()
		return false
	}
	w.connMu.Lock()
	w.conn = conn
	w.connMu.Unlock()
	w.backoff = 0
	if w.everConnected {
		t.reconnects.Add(1)
	}
	w.everConnected = true
	t.outbound.Add(1)
	return true
}

func (w *peerWriter) closeConn() {
	w.connMu.Lock()
	defer w.connMu.Unlock()
	if w.conn != nil {
		w.conn.Close() //dcslint:ignore lockhold teardown: Close never blocks and must precede clearing w.conn under the same connMu hold
		w.conn = nil
		w.t.outbound.Add(-1)
	}
}

// closeConnLocked closes the underlying conn without clearing the
// writer's fields; called by Close (which also cancels the context) to
// unblock a writer stuck in a Write. The writer's own closeConn (via
// its run defer) does the bookkeeping.
func (w *peerWriter) closeConnLocked() {
	w.connMu.Lock()
	defer w.connMu.Unlock()
	if w.conn != nil {
		w.conn.Close() //dcslint:ignore lockhold teardown: Close is how a writer blocked in a Write gets unstuck; it never blocks itself
	}
}

func (w *peerWriter) sleepBackoff() {
	t := w.t
	if w.backoff <= 0 {
		w.backoff = t.cfg.BackoffBase
	} else {
		w.backoff *= 2
		if w.backoff > t.cfg.BackoffMax {
			w.backoff = t.cfg.BackoffMax
		}
	}
	// Jitter in [backoff/2, backoff] to decorrelate reconnect storms.
	half := w.backoff / 2
	d := half + time.Duration(rand.Int63n(int64(half)+1))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-t.ctx.Done():
	case <-timer.C:
	}
}
