// Package ordering implements the Hyperledger-style ordering service of
// Section 2.4: transactions are submitted to an orderer, which cuts them
// into totally-ordered batches ("blocks") by size or timeout. There is
// no branching and no branch-selection algorithm — the trade the paper
// describes for permissioned (CS) systems.
//
// Two orderers are provided: Solo (a static, centralized leader) and
// Raft (a replicated orderer cluster with periodic leader election).
// Committer funnels delivered batches through PBFT so committing peers
// agree on the execution order even if some peers are Byzantine —
// Hyperledger's split between ordering and validation.
package ordering

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dcsledger/internal/consensus/pbft"
	"dcsledger/internal/consensus/raft"
	"dcsledger/internal/obs"
	"dcsledger/internal/simclock"
	"dcsledger/internal/types"
)

// Package errors, matchable with errors.Is.
var (
	ErrNotLeader = errors.New("ordering: this orderer is not the leader")
	ErrStopped   = errors.New("ordering: orderer stopped")
)

// Batch is one ordered block of transactions. It travels the raft log
// and the pbft operation stream in the binary encoding of codec.go.
type Batch struct {
	Seq uint64
	Txs []*types.Transaction
}

// DeliverFunc receives ordered batches, in Seq order, exactly once.
type DeliverFunc func(Batch)

// BatchConfig controls batch cutting.
type BatchConfig struct {
	// MaxTxs cuts a batch when this many transactions are buffered.
	MaxTxs int
	// Timeout cuts a nonempty batch after this much time even if it is
	// not full, bounding latency at low load.
	Timeout time.Duration
}

func (c *BatchConfig) defaults() {
	if c.MaxTxs <= 0 {
		c.MaxTxs = 256
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Second
	}
}

// Solo is the centralized single-process orderer (Hyperledger's "solo"):
// maximal throughput, no fault tolerance, zero decentralization.
type Solo struct {
	mu      sync.Mutex
	cfg     BatchConfig
	clock   simclock.Clock
	buf     []*types.Transaction
	seq     uint64
	subs    []DeliverFunc
	timer   *simclock.Timer
	stopped bool

	obs     obs.Observer
	firstAt time.Time // clock time the current batch's first tx arrived
}

// NewSolo creates a solo orderer.
func NewSolo(cfg BatchConfig, clock simclock.Clock) *Solo {
	cfg.defaults()
	return &Solo{cfg: cfg, clock: clock}
}

// Subscribe registers a committing peer's delivery callback.
func (s *Solo) Subscribe(fn DeliverFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//dcslint:ignore unbounded one Subscribe per peer at wiring time; the set is fixed by deployment config, not network input
	s.subs = append(s.subs, fn)
}

// SetTracer wires the pipeline event tracer: each batch cut records an
// ordering_cut span whose duration is the (clock) time the batch's
// oldest transaction waited before the cut — the batching latency the
// Timeout knob bounds. Call before Submit traffic starts.
func (s *Solo) SetTracer(tr *obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = obs.Observer{Peer: "solo", Tracer: tr}
}

// Submit implements the orderer interface.
func (s *Solo) Submit(tx *types.Transaction) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return ErrStopped
	}
	s.buf = append(s.buf, tx)
	if len(s.buf) == 1 {
		s.firstAt = s.clock.Now()
	}
	if len(s.buf) >= s.cfg.MaxTxs {
		s.cutLocked()
		return nil
	}
	if s.timer == nil {
		s.timer = s.clock.After(s.cfg.Timeout, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.timer = nil
			if !s.stopped && len(s.buf) > 0 {
				s.cutLocked()
			}
		})
	}
	return nil
}

// Stop halts the orderer, flushing nothing.
func (s *Solo) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	s.timer.Stop()
	s.timer = nil
}

// Delivered returns the number of batches cut so far.
func (s *Solo) Delivered() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

func (s *Solo) cutLocked() {
	s.timer.Stop()
	s.timer = nil
	s.seq++
	b := Batch{Seq: s.seq, Txs: s.buf}
	s.buf = nil
	s.obs.Observe(obs.StageOrderingCut, s.firstAt, s.clock.Now().Sub(s.firstAt),
		obs.At{Height: b.Seq, N: uint64(len(b.Txs))})
	for _, fn := range s.subs {
		fn(b)
	}
}

// Raft is the replicated orderer: the elected leader cuts batches and
// replicates them through a Raft log, so ordering survives orderer
// crashes (the "distributed ordering service with periodic leader
// election" of the paper).
type Raft struct {
	mu      sync.Mutex
	cfg     BatchConfig
	clock   simclock.Clock
	node    *raft.Node
	buf     []*types.Transaction
	subs    []DeliverFunc
	timer   *simclock.Timer
	seq     uint64
	stopped bool

	obs     obs.Observer
	firstAt time.Time // clock time the current batch's first tx arrived
}

// NewRaft creates a replicated orderer. Construction is two-phase
// because the raft node needs the orderer's Apply callback:
//
//	o := ordering.NewRaft(cfg, clock)
//	node := raft.NewNode(..., o.Apply)
//	o.Attach(node)
func NewRaft(cfg BatchConfig, clock simclock.Clock) *Raft {
	cfg.defaults()
	return &Raft{cfg: cfg, clock: clock}
}

// Attach binds the raft node. Must be called before Submit.
func (r *Raft) Attach(node *raft.Node) { r.node = node }

// Apply is the raft ApplyFunc: decodes committed batches and delivers
// them.
func (r *Raft) Apply(index uint64, data []byte) {
	b, err := DecodeBatch(data)
	if err != nil {
		return
	}
	r.mu.Lock()
	r.seq = b.Seq
	subs := append([]DeliverFunc(nil), r.subs...)
	r.mu.Unlock()
	for _, fn := range subs {
		fn(b)
	}
}

// Subscribe registers a committing peer's delivery callback.
func (r *Raft) Subscribe(fn DeliverFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	//dcslint:ignore unbounded one Subscribe per peer at wiring time; the set is fixed by deployment config, not network input
	r.subs = append(r.subs, fn)
}

// SetTracer wires the pipeline event tracer: each batch cut at the
// leader records an ordering_cut span (see Solo.SetTracer).
func (r *Raft) SetTracer(tr *obs.Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = obs.Observer{Peer: "raft", Tracer: tr}
}

// IsLeader reports whether this orderer currently leads the cluster.
func (r *Raft) IsLeader() bool { return r.node.IsLeader() }

// Submit buffers a transaction at the leader. Followers reject with
// ErrNotLeader; clients retry against the current leader.
func (r *Raft) Submit(tx *types.Transaction) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return ErrStopped
	}
	if !r.node.IsLeader() {
		return fmt.Errorf("%w (leader: %s)", ErrNotLeader, r.node.Leader())
	}
	r.buf = append(r.buf, tx)
	if len(r.buf) == 1 {
		r.firstAt = r.clock.Now()
	}
	if len(r.buf) >= r.cfg.MaxTxs {
		return r.cutLocked()
	}
	if r.timer == nil {
		r.timer = r.clock.After(r.cfg.Timeout, func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.timer = nil
			if !r.stopped && len(r.buf) > 0 && r.node.IsLeader() {
				_ = r.cutLocked()
			}
		})
	}
	return nil
}

// Stop halts the orderer (the raft node is stopped separately).
func (r *Raft) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	r.timer.Stop()
	r.timer = nil
}

// Delivered returns the latest delivered batch sequence.
func (r *Raft) Delivered() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

func (r *Raft) cutLocked() error {
	r.timer.Stop()
	r.timer = nil
	b := Batch{Seq: r.nextSeqLocked(), Txs: r.buf}
	if _, err := r.node.Propose(b.Encode()); err != nil {
		return fmt.Errorf("ordering: %w", err)
	}
	r.obs.Observe(obs.StageOrderingCut, r.firstAt, r.clock.Now().Sub(r.firstAt),
		obs.At{Height: b.Seq, N: uint64(len(b.Txs))})
	r.buf = nil
	return nil
}

// nextSeqLocked derives the next batch sequence from the raft log
// length, which is consistent at the leader.
func (r *Raft) nextSeqLocked() uint64 {
	return uint64(r.node.LogLen()) + 1
}

// Committer runs at a committing peer: batches delivered by the orderer
// are pushed through PBFT so all (≤ f faulty) peers agree on the
// execution sequence, then executed via exec.
type Committer struct {
	mu    sync.Mutex
	node  *pbft.Node
	exec  func(Batch)
	seen  map[uint64]bool
	count uint64
}

// NewCommitter creates a committer. Wire its Apply as the PBFT node's
// ApplyFunc and its OnBatch as the orderer subscription.
func NewCommitter(exec func(Batch)) *Committer {
	return &Committer{exec: exec, seen: make(map[uint64]bool)}
}

// Attach binds the PBFT node used for agreement.
func (c *Committer) Attach(node *pbft.Node) { c.node = node }

// OnBatch receives a batch from the orderer and proposes it to the
// peer-group's PBFT instance.
func (c *Committer) OnBatch(b Batch) {
	_ = c.node.Propose(b.Encode())
}

// Apply is the PBFT ApplyFunc: executes each agreed batch once.
func (c *Committer) Apply(seq uint64, op []byte) {
	b, err := DecodeBatch(op)
	if err != nil {
		return
	}
	c.mu.Lock()
	if c.seen[b.Seq] {
		c.mu.Unlock()
		return
	}
	c.seen[b.Seq] = true
	c.count++
	c.mu.Unlock()
	if c.exec != nil {
		c.exec(b)
	}
}

// Committed returns how many distinct batches this peer has executed.
func (c *Committer) Committed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}
