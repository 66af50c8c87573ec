// Package ordering implements the Hyperledger-style ordering service of
// Section 2.4: transactions are submitted to an orderer, which cuts them
// into totally-ordered batches ("blocks") by size or timeout. There is
// no branching and no branch-selection algorithm — the trade the paper
// describes for permissioned (CS) systems.
//
// One Orderer type holds the batch cutter; its two constructors give
// the two orderers: NewSolo (a static, centralized leader) and NewRaft
// (a replicated orderer cluster with periodic leader election).
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

// Orderer cuts submitted transactions into totally-ordered batches by
// size or timeout. It comes from one of two constructors, which differ
// in where a cut batch goes and in who may cut one: NewSolo's hands
// every batch straight to its subscribers; NewRaft's is one member of a
// replicated cluster in which only the elected leader cuts, into the
// Raft log, and every member delivers what the log commits.
type Orderer struct {
	mu      sync.Mutex
	cfg     BatchConfig
	clock   simclock.Clock
	buf     []*types.Transaction
	seq     uint64 // the last batch delivered
	subs    []DeliverFunc
	timer   *simclock.Timer
	stopped bool

	obs     obs.Observer
	firstAt time.Time // clock time the current batch's first tx arrived

	peer string     // the ordering_cut span's peer label
	node *raft.Node // the replicated log (NewRaft + Attach); nil for NewSolo
	// hand numbers a cut batch and sends it on its way, under mu.
	hand func(txs []*types.Transaction) (seq uint64, err error)
}

func newOrderer(peer string, cfg BatchConfig, clock simclock.Clock) *Orderer {
	cfg.defaults()
	return &Orderer{cfg: cfg, clock: clock, peer: peer}
}

// NewSolo creates the centralized single-process orderer (Hyperledger's
// "solo"): maximal throughput, no fault tolerance, zero
// decentralization. A batch is delivered as it is cut, never encoded.
func NewSolo(cfg BatchConfig, clock simclock.Clock) *Orderer {
	o := newOrderer("solo", cfg, clock)
	o.hand = func(txs []*types.Transaction) (uint64, error) {
		o.seq++
		for _, fn := range o.subs {
			fn(Batch{Seq: o.seq, Txs: txs})
		}
		return o.seq, nil
	}
	return o
}

// NewRaft creates a replicated orderer: the elected leader cuts batches
// and replicates them through a Raft log, so ordering survives orderer
// crashes (the "distributed ordering service with periodic leader
// election" of the paper). Construction is two-phase because the raft
// node needs the orderer's Apply callback:
//
//	o := ordering.NewRaft(cfg, clock)
//	node := raft.NewNode(..., o.Apply)
//	o.Attach(node)
func NewRaft(cfg BatchConfig, clock simclock.Clock) *Orderer {
	o := newOrderer("raft", cfg, clock)
	o.hand = func(txs []*types.Transaction) (uint64, error) {
		// The log length is consistent at the leader, so it numbers
		// the batches still in flight too.
		b := Batch{Seq: uint64(o.node.LogLen()) + 1, Txs: txs}
		return b.Seq, o.node.Propose(b.Encode())
	}
	return o
}

// Attach binds the raft node. Must be called before Submit.
func (o *Orderer) Attach(node *raft.Node) { o.node = node }

// Apply is the raft ApplyFunc: decodes committed batches and delivers
// them.
func (o *Orderer) Apply(index uint64, data []byte) {
	b, err := DecodeBatch(data)
	if err != nil {
		return
	}
	o.mu.Lock()
	o.seq = b.Seq
	subs := append([]DeliverFunc(nil), o.subs...)
	o.mu.Unlock()
	for _, fn := range subs {
		fn(b)
	}
}

// Subscribe registers a committing peer's delivery callback.
func (o *Orderer) Subscribe(fn DeliverFunc) {
	o.mu.Lock()
	defer o.mu.Unlock()
	//dcslint:ignore unbounded one Subscribe per peer at wiring time; the set is fixed by deployment config, not network input
	o.subs = append(o.subs, fn)
}

// SetTracer wires the pipeline event tracer: each batch cut (at the
// leader, for a replicated orderer) records an ordering_cut span whose
// duration is the (clock) time the batch's oldest transaction waited
// before the cut — the batching latency the Timeout knob bounds. Call
// before Submit traffic starts.
func (o *Orderer) SetTracer(tr *obs.Tracer) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.obs = obs.Observer{Peer: o.peer, Tracer: tr}
}

// IsLeader reports whether this orderer may cut batches now: always for
// a solo orderer, while it leads the cluster for a replicated one.
func (o *Orderer) IsLeader() bool { return o.node == nil || o.node.IsLeader() }

// Submit buffers a transaction. A replicated orderer that is not the
// leader rejects it with ErrNotLeader; clients retry against the
// current leader.
func (o *Orderer) Submit(tx *types.Transaction) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stopped {
		return ErrStopped
	}
	if !o.IsLeader() {
		return fmt.Errorf("%w (leader: %s)", ErrNotLeader, o.node.Leader())
	}
	o.buf = append(o.buf, tx)
	if len(o.buf) == 1 {
		o.firstAt = o.clock.Now()
	}
	if len(o.buf) >= o.cfg.MaxTxs {
		return o.cutLocked()
	}
	if o.timer == nil {
		o.timer = o.clock.After(o.cfg.Timeout, func() {
			o.mu.Lock()
			defer o.mu.Unlock()
			o.timer = nil
			if !o.stopped && len(o.buf) > 0 && o.IsLeader() {
				_ = o.cutLocked()
			}
		})
	}
	return nil
}

// Stop halts the orderer, flushing nothing (a raft node is stopped
// separately).
func (o *Orderer) Stop() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.stopped = true
	o.timer.Stop()
	o.timer = nil
}

// Delivered returns the sequence of the latest batch delivered.
func (o *Orderer) Delivered() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.seq
}

func (o *Orderer) cutLocked() error {
	o.timer.Stop()
	o.timer = nil
	seq, err := o.hand(o.buf)
	if err != nil {
		return fmt.Errorf("ordering: %w", err) // the buffer waits for the next cut
	}
	o.obs.Observe(obs.StageOrderingCut, o.firstAt, o.clock.Now().Sub(o.firstAt),
		obs.At{Height: seq, N: uint64(len(o.buf))})
	o.buf = nil
	return nil
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
