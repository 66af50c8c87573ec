// Package node assembles the full peer of Figure 1: mempool, consensus
// engine, branch selection, gossip, chain store, and state execution.
// One node type covers every configuration of the paper's Section 2.7
// examples — Bitcoin-like (PoW + longest chain), Ethereum-like
// (fast PoW + GHOST + contracts), and validator-set (PoS / PoET) — by
// plugging different Engine/ForkChoice/reward choices into the same
// substrate ("one size does not fit all" as a configuration knob).
package node

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/exec"
	"dcsledger/internal/incentive"
	"dcsledger/internal/metrics"
	"dcsledger/internal/nodestore"
	"dcsledger/internal/obs"
	"dcsledger/internal/p2p"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/store"
	"dcsledger/internal/txpool"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// Gossip topics.
const (
	TopicTx    = "tx"
	TopicBlock = "block"
)

// Direct (non-gossip) message types: the block-fetch protocol that
// backfills missing ancestors after partitions heal.
const (
	msgGetBlock = "node/getblock"
	msgBlock    = "node/block"
)

// Validation errors, matchable with errors.Is.
var (
	ErrBadTxRoot    = errors.New("node: transaction root mismatch")
	ErrBadStateRoot = errors.New("node: state root mismatch")
	ErrKnownBlock   = errors.New("node: block already known")
)

// DefaultStateRetention is how many blocks below the fork-choice head
// keep their post-state (what the block wrote, over the committed trie).
// Deeper states are pruned and rebuilt on demand by replaying blocks
// from the nearest retained ancestor (or genesis), so memory stays
// O(window × block writes) instead of O(chain) while reorgs of any depth
// still succeed.
const DefaultStateRetention = 128

// DefaultMaxOrphans bounds the unknown-parent block buffer so a spammy
// peer cannot grow it without bound.
const DefaultMaxOrphans = 512

// Config assembles one peer.
type Config struct {
	// ID is the network identity.
	ID p2p.NodeID
	// Key signs blocks this node proposes (and derives its address).
	Key *cryptoutil.KeyPair
	// Engine is the block-proposal algorithm.
	Engine consensus.Engine
	// ForkChoice is the branch-selection algorithm.
	ForkChoice consensus.ForkChoice
	// Genesis is the shared genesis block.
	Genesis *types.Block
	// Alloc funds accounts at genesis (identical across peers).
	Alloc map[cryptoutil.Address]uint64
	// Executor runs contract transactions (optional).
	Executor state.Executor
	// Rewards is the block-subsidy schedule.
	Rewards incentive.Schedule
	// Clock is the (virtual or wall) time source.
	Clock simclock.Clock
	// Mine enables block production.
	Mine bool
	// MaxBlockTxs bounds user transactions per block (default 256).
	MaxBlockTxs int
	// StateRetention is how many blocks below the head keep a
	// materialized post-state (0 = DefaultStateRetention, negative =
	// retain everything, i.e. an archive node).
	StateRetention int
	// Durable, when non-nil, journals every connected block and head
	// switch into a write-ahead log and periodically checkpoints the
	// head state, so the ledger survives a process crash. Open it with
	// wal.OpenStore and feed the returned Recovery to Recover before
	// Attach/Start. Nil keeps the node memory-only.
	Durable *wal.DurableStore
	// DiskState, when non-nil, backs the state with a persistent node
	// store: account and storage tries and contract code resolve from
	// disk through the store's bounded cache, what was written since the
	// last flush goes there when Durable checkpoints, and Merkle proofs
	// are served for the head (see diskstate.go). It requires Durable.
	DiskState *nodestore.Store
	// ExecWorkers is the optimistic parallel-execution width for block
	// connect (see internal/exec). 0 keeps the serial ApplyBlock path.
	ExecWorkers int
	// ExecParanoid re-runs every parallel block serially and rejects it
	// on any root or receipt divergence — a debug assertion that costs
	// the whole speedup.
	ExecParanoid bool
}

// Metrics counts a node's activity for the experiment harness.
type Metrics struct {
	BlocksProposed  uint64
	BlocksAccepted  uint64
	BlocksRejected  uint64
	TxsSubmitted    uint64
	Reorgs          uint64
	OrphansBuffered uint64
	OrphansEvicted  uint64
	StatesPruned    uint64
	StateRebuilds   uint64
	WALAppendErrors uint64
	RecoveredBlocks uint64

	// ForkChoiceSwitches counts fork-choice answers that were not the
	// current head: the fork churn behind the paper's
	// consistency-vs-scalability trade-off.
	ForkChoiceSwitches uint64

	// Block bodies read back from the journal (zero unless Config.Durable
	// is set): old bodies are not kept in memory, see trieRetention.
	BodyReads      uint64
	BodyReadErrors uint64

	// Disk state backend (zero unless Config.DiskState is set).
	DiskFlushes      uint64 // trie flushes: genesis, recovery seed, one per checkpoint
	DiskFlushRecords uint64 // records the flushes staged
	DiskFlushDeltas  uint64 // of them, branches written as deltas
	DiskFlushInline  uint64 // leaves written inside their branches' records
	DiskPrunes       uint64
	DiskErrors       uint64

	// StateReadErrors counts trie reads under a state that failed (an I/O
	// error, a node the store no longer holds). A block that hit one is
	// not rejected: it connects once the store answers again.
	StateReadErrors uint64

	// Optimistic parallel execution (zero unless Config.ExecWorkers > 0).
	ExecParallelBlocks uint64
	ExecConflicts      uint64
	ExecReplayedTxs    uint64
	ExecSpeedupMilli   uint64 // last parallel block's estimated speedup ×1000
}

// Node is one ledger peer. All public entry points serialize on an
// internal mutex, so the node is safe both on the single-threaded
// simulator and behind a concurrent TCP transport.
type Node struct {
	mu       sync.Mutex
	cfg      Config
	self     cryptoutil.Address
	tree     *store.BlockTree
	chain    *store.Chain
	pool     *txpool.Pool
	gossiper *p2p.Gossiper
	tr       p2p.Transport
	mux      *p2p.Mux

	// State lifecycle: post-states are kept only for blocks within
	// StateRetention of the head; baseState (the trie of the genesis
	// post-state) is pinned forever as the replay root for rebuilding
	// pruned states.
	// anchorHeight is the monotonic lower edge of the retention window;
	// detachedAt is the head height at which the head state was last cut
	// loose from the layers under it.
	states       map[cryptoutil.Hash]*state.State
	baseState    *state.State
	anchorHeight uint64
	detachedAt   uint64
	// tries lists the hot states: those that still hold their account
	// trie and keep their writes in maps. Only those within trieRetention
	// of the head stay hot (releaseTriesLocked).
	tries []trieHolder

	// Orphan buffer: blocks whose parent has not arrived yet, deduped
	// by hash, capped, evicted oldest-first.
	orphans     map[cryptoutil.Hash][]cryptoutil.Hash // parent → waiting child hashes
	orphanPool  map[cryptoutil.Hash]*types.Block      // hash → buffered block
	orphanOrder []cryptoutil.Hash                     // arrival order for eviction

	requested    map[cryptoutil.Hash]time.Time // ancestor fetches, by request time
	lastReqSweep time.Time

	mineTimer *simclock.Timer
	mineTip   cryptoutil.Hash
	started   bool

	blockSubs []func(*types.Block)

	// publishIntercept, when set, decides per produced block whether to
	// gossip it now (true) or withhold it (false). Withheld blocks stay
	// connected locally — the node keeps mining its private chain — and
	// are buffered until ReleaseWithheld. This is the injection point
	// for the scenario harness's selfish-mining actor.
	publishIntercept func(*types.Block) bool
	withheld         []*types.Block

	// disk is the persistent backing of the account trie (nil unless
	// Config.DiskState is set). See diskstate.go.
	disk *diskState

	// exec applies blocks built elsewhere — optimistically in parallel
	// when Config.ExecWorkers > 0, serially otherwise. The execute stage
	// is its one caller; produceBlock builds its block serially and that
	// pass is the block's execution here.
	exec *exec.Executor

	metrics Metrics
	// States count failed reads wherever they are read, with or without
	// n.mu (state.State.CountReadErrors).
	stateReadErrs atomic.Uint64
	// Read-backs happen on whatever goroutine asked the tree for an old
	// block, with or without n.mu: counted atomically.
	bodyReads, bodyReadErrors atomic.Uint64
	// Submissions are counted without n.mu, so a submit never waits on a
	// connect.
	txsSubmitted atomic.Uint64

	// obs is the seam every stage of the pipeline is observed through:
	// the latency histograms of the stages New names (exported via
	// RegisterMetrics) and the optional event tracer (SetTracer).
	obs obs.Observer
}

// New creates a peer. Wire the returned node's Mux into a transport and
// call Attach with the transport and its gossiper before Start.
func New(cfg Config) (*Node, error) {
	if cfg.Genesis == nil {
		return nil, errors.New("node: nil genesis")
	}
	if cfg.Key == nil {
		return nil, errors.New("node: nil key")
	}
	if cfg.Engine == nil || cfg.ForkChoice == nil {
		return nil, errors.New("node: engine and fork choice required")
	}
	if cfg.DiskState != nil && cfg.Durable == nil {
		return nil, errors.New("node: a disk state backend requires a durable store")
	}
	if cfg.MaxBlockTxs <= 0 {
		cfg.MaxBlockTxs = 256
	}
	if cfg.StateRetention == 0 {
		cfg.StateRetention = DefaultStateRetention
	}
	n := &Node{
		cfg:        cfg,
		self:       cfg.Key.Address(),
		pool:       txpool.New(0),
		mux:        p2p.NewMux(),
		orphans:    make(map[cryptoutil.Hash][]cryptoutil.Hash),
		orphanPool: make(map[cryptoutil.Hash]*types.Block),
		requested:  make(map[cryptoutil.Hash]time.Time),
		exec:       &exec.Executor{Workers: cfg.ExecWorkers, Paranoid: cfg.ExecParanoid},
	}
	stages := []string{
		obs.StageBlockVerify, obs.StageBlockConnect, obs.StageStateApply, obs.StageStateCommit,
		obs.StageStateRebuild, obs.StageBlockPropose, obs.StageTxInclusion, obs.StageWALAppend, obs.StageRecover,
		obs.StageForkChoice,
	}
	if cfg.DiskState != nil {
		stages = append(stages, obs.StageDiskFlush, obs.StageDiskSweep)
	}
	n.obs = obs.NewObserver(string(cfg.ID), nil, stages...)
	if cfg.Clock != nil {
		// Admit→inclusion ages run on the node's clock, so simulated
		// networks report virtual latencies (the quantity the paper's
		// throughput claims are about) and the daemon reports wall time.
		n.pool.Instrument(cfg.Clock.Now, func(age time.Duration) {
			n.obs.Observe(obs.StageTxInclusion, time.Time{}, age, obs.At{})
		})
	}
	n.rootTreeLocked(cfg.Genesis)
	if cfg.DiskState != nil {
		n.disk = &diskState{store: cfg.DiskState}
	}
	// The genesis trie is the one every later trie is derived from; on
	// the disk backend it is in the store from boot (no lock needed: the
	// node is not shared yet). The allocation is not kept beside it.
	gst := state.New()
	gst.SetExecutor(cfg.Executor)
	gst.CountReadErrors(&n.stateReadErrs)
	for a, v := range cfg.Alloc {
		gst.Credit(a, v)
	}
	n.cfg.Alloc = nil
	base, err := n.seedTrieLocked(0, gst, false)
	if err != nil {
		return nil, err
	}
	n.baseState = base
	n.states = map[cryptoutil.Hash]*state.State{cfg.Genesis.Hash(): base}
	return n, nil
}

// SetTracer wires the pipeline event tracer. Call before Start (and
// before concurrent traffic); the tracer is also propagated to the
// consensus engine when it supports one, with the node's ID to label its
// spans (pow records seal spans).
func (n *Node) SetTracer(tr *obs.Tracer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.obs.Tracer = tr
	if e, ok := n.cfg.Engine.(interface{ SetTracer(string, *obs.Tracer) }); ok {
		e.SetTracer(string(n.cfg.ID), tr)
	}
}

// rootTreeLocked starts a block tree and main chain at root, the genesis.
// With a durable store the tree reads old bodies back from the journal
// instead of keeping them.
func (n *Node) rootTreeLocked(root *types.Block) {
	n.tree = store.NewBlockTree(root)
	if n.cfg.Durable != nil {
		n.tree.SetBodySource(journalBodies{n})
	}
	n.chain = store.NewChain(n.tree)
	// Difficulty retargeting needs a chain view.
	if e, ok := n.cfg.Engine.(interface{ SetHeaderReader(pow.HeaderReader) }); ok {
		e.SetHeaderReader(headerReader{tree: n.tree})
	}
}

// headerReader adapts the block tree to pow.HeaderReader.
type headerReader struct {
	tree *store.BlockTree
}

func (r headerReader) HeaderByHash(h cryptoutil.Hash) (*types.BlockHeader, bool) {
	return r.tree.Header(h)
}

// journalBodies is the block tree's body source: the durable store's
// journal, with every read-back counted and recorded as a body_read
// span, so one that happens inside a connect is attributed to it.
type journalBodies struct{ n *Node }

func (s journalBodies) HasBlock(h cryptoutil.Hash) bool { return s.n.cfg.Durable.HasBlock(h) }

func (s journalBodies) ReadBlock(h cryptoutil.Hash) (*types.Block, error) {
	sw := obs.StartTimer()
	b, err := s.n.cfg.Durable.ReadBlock(h)
	s.n.bodyReads.Add(1)
	if err != nil {
		s.n.bodyReadErrors.Add(1)
		return nil, err
	}
	s.n.obs.Observe(obs.StageBodyRead, sw.Start(), sw.Elapsed(), blockAt(b, h))
	return b, nil
}

// Mux is the node's message dispatcher; point the transport handler at
// Mux().Dispatch.
func (n *Node) Mux() *p2p.Mux { return n.mux }

// Gossiper returns the attached gossiper (nil before Attach). Scenario
// actors use it to inject traffic — e.g. junk-topic spam — through this
// node's overlay links.
func (n *Node) Gossiper() *p2p.Gossiper { return n.gossiper }

// Attach wires the node to its transport and gossiper.
func (n *Node) Attach(tr p2p.Transport, g *p2p.Gossiper) {
	n.tr = tr
	n.gossiper = g
	n.mux.Handle(p2p.GossipMsgType, g.HandleMessage)
	n.mux.Handle("node/", n.onDirect)
	g.Subscribe(TopicTx, n.onTxGossip)
	g.Subscribe(TopicBlock, n.onBlockGossip)
}

// Start begins mining if configured. Call after Attach.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.started = true
	if n.cfg.Mine {
		n.scheduleMine()
	}
}

// Stop cancels any pending proposal.
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.started = false
	n.mineTimer.Stop()
}

// seedTrieLocked turns st — the genesis state, or a checkpoint's state —
// into the base that later tries derive from, and returns it: a state
// that is its trie and nothing else. On the disk backend the trie goes
// through the store (persistTrieLocked): the flush that preceded a
// checkpoint left its root there, so normally nothing is written; with
// rewrite, every node the store lacks is. Caller holds n.mu.
func (n *Node) seedTrieLocked(height uint64, st *state.State, rewrite bool) (*state.State, error) {
	st.Commit() // the memory backend builds its base trie here
	err := n.persistTrieLocked(height, st, rewrite)
	return st.Detach(), err
}

// Accessors for tests, examples, and the experiment harness.

// Address returns the node's account address.
func (n *Node) Address() cryptoutil.Address { return n.self }

// Chain returns the node's main-chain view.
func (n *Node) Chain() *store.Chain { return n.chain }

// Tree returns the node's full block tree.
func (n *Node) Tree() *store.BlockTree { return n.tree }

// Pool returns the node's mempool.
func (n *Node) Pool() *txpool.Pool { return n.pool }

// Metrics returns a snapshot of activity counters.
func (n *Node) Metrics() Metrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.metricsLocked()
}

func (n *Node) metricsLocked() Metrics {
	m := n.metrics
	m.BodyReads, m.BodyReadErrors = n.bodyReads.Load(), n.bodyReadErrors.Load()
	m.TxsSubmitted = n.txsSubmitted.Load()
	m.StateReadErrors = n.stateReadErrs.Load()
	return m
}

// RegisterMetrics exports the node through reg for the daemon's GET
// /metrics endpoint: the stage histograms and one collector for the node,
// then what its Config gave it — the journal, the disk state and the
// engine — each through its own RegisterMetrics. A scrape takes the node
// lock once, and every node_* series in it is read under that one hold
// (the counters from the Metrics snapshot), so they agree with each other.
func (n *Node) RegisterMetrics(reg *metrics.Registry) {
	n.obs.Register(reg)
	reg.Collect(func(emit func(string, int64)) {
		count := func(name string, v uint64) { emit(name, int64(v)) }
		n.mu.Lock()
		m := n.metricsLocked()
		height, treeSize, bodies := n.chain.Height(), n.tree.Len(), n.tree.BodiesResident()
		txIndex := n.chain.TxIndexEntries()
		states, orphans := len(n.states), len(n.orphanPool)
		var flushedHeight uint64
		if n.disk != nil {
			flushedHeight = n.disk.flushedHeight
		}
		n.mu.Unlock()
		count("node_blocks_proposed_total", m.BlocksProposed)
		count("node_blocks_accepted_total", m.BlocksAccepted)
		count("node_blocks_rejected_total", m.BlocksRejected)
		count("node_txs_submitted_total", m.TxsSubmitted)
		count("node_reorgs_total", m.Reorgs)
		count("node_orphans_buffered_total", m.OrphansBuffered)
		count("node_orphans_evicted_total", m.OrphansEvicted)
		count("node_states_pruned_total", m.StatesPruned)
		count("node_state_rebuilds_total", m.StateRebuilds)
		emit("node_states_retained", int64(states))
		emit("node_orphan_buffer_size", int64(orphans))
		count("node_chain_height", height)
		emit("node_block_tree_size", int64(treeSize))
		emit("node_block_bodies_resident", int64(bodies))
		count("node_block_body_reads_total", m.BodyReads)
		count("node_block_body_read_errors_total", m.BodyReadErrors)
		emit("node_tx_index_entries", int64(txIndex)) // 0 until something looks a transaction up
		count("node_state_read_errors_total", m.StateReadErrors)
		emit("node_mempool_size", int64(n.pool.Len()))
		if n.cfg.ExecWorkers > 0 {
			count("exec_parallel_blocks_total", m.ExecParallelBlocks)
			count("exec_conflicts_total", m.ExecConflicts)
			count("exec_replayed_txs_total", m.ExecReplayedTxs)
			// exec_speedup is the last parallel block's estimated speedup in
			// thousandths (2000 = 2x): speculated work time over wall clock.
			count("exec_speedup", m.ExecSpeedupMilli)
		}
		count("node_wal_append_errors_total", m.WALAppendErrors)
		count("node_recovered_blocks_total", m.RecoveredBlocks)
		count("forkchoice_switches_total", m.ForkChoiceSwitches)
		if n.disk != nil {
			count("node_disk_flushes_total", m.DiskFlushes)
			count("node_disk_flush_records_total", m.DiskFlushRecords)
			count("node_disk_flush_delta_records_total", m.DiskFlushDeltas)
			count("node_disk_flush_inline_leaves_total", m.DiskFlushInline)
			count("node_disk_prunes_total", m.DiskPrunes)
			count("node_disk_errors_total", m.DiskErrors)
			count("node_disk_flushed_height", flushedHeight)
		}
	})
	if n.cfg.Durable != nil {
		n.cfg.Durable.RegisterMetrics(reg)
	}
	if n.cfg.DiskState != nil {
		n.cfg.DiskState.RegisterMetrics(reg)
	}
	if e, ok := n.cfg.Engine.(interface{ RegisterMetrics(*metrics.Registry) }); ok {
		e.RegisterMetrics(reg)
	}
}

// State returns the state at the current main-chain head, nil when it
// cannot be produced; callers that cannot rule that out use HeadState.
func (n *Node) State() *state.State {
	st, _ := n.HeadState()
	return st
}

// StateAt returns the post-state of a specific block. For blocks whose
// materialized state was pruned it is rebuilt by replaying forward from
// the nearest retained ancestor (counted in Metrics.StateRebuilds).
func (n *Node) StateAt(h cryptoutil.Hash) (*state.State, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, err := n.stateOfLocked(h)
	return st, err == nil
}

// stateOfLocked returns the post-state of block h. If it was pruned it is
// rebuilt by replaying the blocks from the nearest retained ancestor
// (ultimately the pinned base state) up to and including h: the execute
// stage, block after block, each root checked. The blocks replayed were
// all verified when they were first stored. Caller holds n.mu.
func (n *Node) stateOfLocked(h cryptoutil.Hash) (*state.State, error) {
	var pending []cryptoutil.Hash // h first, then successively deeper ancestors
	st := n.baseState
	for cur, genesis := h, n.tree.Genesis(); cur != genesis; {
		if retained, ok := n.states[cur]; ok {
			st = retained
			break
		}
		hdr, ok := n.tree.Header(cur)
		if !ok {
			return nil, fmt.Errorf("node: unknown block %s", cur.Short())
		}
		pending = append(pending, cur)
		cur = hdr.ParentHash
	}
	if len(pending) == 0 {
		return st, nil
	}
	sw := obs.StartTimer()
	// One body at a time: a replay deeper than the body window reads its
	// blocks back from the journal and need not hold them all.
	for i := len(pending) - 1; i >= 0; i-- {
		b, err := n.tree.Block(pending[i])
		if err == nil {
			st, err = n.executeLocked(st, b, blockAt(b, pending[i]))
		}
		if err != nil {
			return nil, fmt.Errorf("node: replay %s: %w", pending[i].Short(), err)
		}
		if i > 0 {
			// The next block's layer sits on this one's trie and nothing
			// under it: the state returned holds no layer per block replayed.
			st = st.Detach()
		}
	}
	height, _ := n.tree.Height(h) // h is in the tree: the walk above found its header
	n.metrics.StateRebuilds++
	n.obs.Observe(obs.StageStateRebuild, sw.Start(), sw.Elapsed(), obs.At{Height: height, N: uint64(len(pending))})
	// Cache the rebuild only when it falls inside the retention
	// window, so deep historical queries don't regrow the map.
	if height >= n.anchorHeight {
		n.states[h] = st
		n.tries = append(n.tries, trieHolder{st: st, height: height})
	}
	return st, nil
}

// pruneStatesLocked drops states deeper than the retention window below
// the head and periodically cuts the head's state loose from the layers
// under it, so those of pruned ancestors become garbage-collectable.
// Caller holds n.mu.
func (n *Node) pruneStatesLocked() {
	n.releaseTriesLocked()
	w := n.cfg.StateRetention
	if w < 0 {
		return // archive node
	}
	head := n.chain.Height()
	if head <= uint64(w) {
		return
	}
	anchorH := head - uint64(w)
	if anchorH <= n.anchorHeight {
		return // window edge is monotonic: reorgs never re-grow the map
	}
	n.anchorHeight = anchorH
	for h := range n.states {
		if height, err := n.tree.Height(h); err != nil || height < anchorH {
			delete(n.states, h)
			n.metrics.StatesPruned++
		}
	}
	// Detach the head's state every ~W/2 blocks: O(1), the detached state
	// is the head's trie and nothing else. The next block's layer then
	// sits on it, so the diff layers below are reachable only from the
	// states of the window and go as those are pruned, and a state whose
	// own trie was released (trieRetention) reads through fewer than
	// stride layers to the trie of the detached state under it, which
	// lives as long as a state above it does.
	stride := max(uint64(w)/2, 1)
	if head-n.detachedAt >= stride {
		hh := n.chain.Head()
		if st, ok := n.states[hh]; ok {
			n.states[hh] = st.Detach()
		}
		n.detachedAt = head
	}
}

// trieRetention is the hot window: how far below the head a retained
// state keeps its account trie, and the block tree of a durable node the
// decoded bodies of its blocks. A fork within it costs no journal read
// and no trie rebuild. A block that extends a state deeper than this (a
// deep reorg) reads and commits through the layers down to the detached
// state under them, and the bodies it needs — as a state rebuild or a
// peer that asks for an old block does — are read back from the journal
// (journalBodies). In exchange a node holds a handful of trie versions
// and of bodies, not one per retained state. A block the journal does
// not hold — a store that latched failed — stays in memory whatever its
// depth, and a memory-only node evicts no body.
const trieRetention = 8

// evictBodiesLocked lets go of the journaled bodies more than
// trieRetention below the head, on whatever branch. It runs after every
// connect, not only when the head moves: a long side branch must not
// pile up in memory while it waits to win. Caller holds n.mu.
func (n *Node) evictBodiesLocked() {
	if head := n.chain.Height(); head > trieRetention {
		n.tree.EvictBodies(head - trieRetention)
	}
}

// trieHolder is a state that may still hold its tries, and its height.
type trieHolder struct {
	st     *state.State
	height uint64
}

// releaseTriesLocked drops the tries of every state that has fallen more
// than trieRetention below the head; the states keep their memoized
// roots. Such a state goes cold: it is compacted, its writes kept in the
// sorted form a third the size of the maps, for only a fork deeper than
// trieRetention reads it again. Caller holds n.mu.
func (n *Node) releaseTriesLocked() {
	head := n.chain.Height()
	k := 0
	for _, t := range n.tries {
		if t.height+trieRetention < head {
			t.st.ReleaseTrie()
			t.st.Compact()
			continue
		}
		n.tries[k] = t
		k++
	}
	clear(n.tries[k:]) // no state stays reachable from the slack
	n.tries = n.tries[:k]
}

// HeadState returns the state at the current main-chain head, or the
// reason it cannot be produced (a pruned head state whose replay fails).
// The state is shared and frozen: read it through a Copy, whose Err then
// tells whether every read was answered.
func (n *Node) HeadState() (*state.State, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stateOfLocked(n.chain.Head())
}

// Balance is a convenience query against the head state.
func (n *Node) Balance(a cryptoutil.Address) (uint64, error) {
	st, err := n.HeadState()
	if err != nil {
		return 0, err
	}
	v := st.Copy() // a failed read latches on the view, not on the shared head state
	return v.Balance(a), v.Err()
}

// OnBlock registers an event-notification callback fired for every
// block that joins the main chain (in chain order, including blocks
// re-added by reorgs) — the messaging/eventing middleware hook of the
// paper's Section 5.2. Callbacks run on the node's event path and must
// not call back into the node.
func (n *Node) OnBlock(fn func(*types.Block)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	//dcslint:ignore unbounded subscribers register once at process wiring time; the set is code-defined, not network input
	n.blockSubs = append(n.blockSubs, fn)
}

// SubmitTx validates a transaction into the mempool and gossips it,
// without taking n.mu: the pool has its own lock, the count is atomic
// and the gossiper is set once by Attach, before Start. So a submit
// never waits behind a block connect, and the transport never runs
// under n.mu (lockhold invariant).
func (n *Node) SubmitTx(tx *types.Transaction) error {
	if err := n.pool.Add(tx); err != nil {
		return err
	}
	n.txsSubmitted.Add(1)
	if n.gossiper != nil {
		n.gossiper.Publish(TopicTx, tx.Encode())
	}
	return nil
}

func (n *Node) onTxGossip(from p2p.NodeID, payload []byte) {
	if from == n.cfg.ID {
		return // local publish: already pooled by SubmitTx
	}
	tx, err := types.DecodeTransaction(payload)
	if err != nil {
		return // malformed gossip: drop
	}
	_ = n.pool.Add(tx) // duplicates and invalid txs are fine to drop
}

func (n *Node) onBlockGossip(from p2p.NodeID, payload []byte) {
	if from == n.cfg.ID {
		return // local publish: already integrated by produceBlock
	}
	b, err := types.DecodeBlock(payload)
	if err != nil {
		return
	}
	n.pool.Adopt(b.Txs) // before n.mu: the pool's lock only
	n.mu.Lock()
	defer n.mu.Unlock()
	_ = n.handleBlockFrom(b, from)
}

// onDirect serves the block-fetch protocol. For msgGetBlock the block
// is fetched and sent after the lock is released, so neither the
// transport call nor a read-back runs inside the critical section
// (lockhold invariant).
func (n *Node) onDirect(m p2p.Message) {
	switch m.Type {
	case msgGetBlock:
		h, err := cryptoutil.HashFromHex(string(m.Data))
		if err != nil {
			return
		}
		n.mu.Lock()
		tr, tree := n.tr, n.tree
		n.mu.Unlock()
		// An old body is read back from the journal: not under n.mu. A
		// block the tree does not name or cannot produce gets no reply.
		if b, err := tree.Block(h); err == nil && tr != nil {
			_ = tr.Send(m.From, p2p.Message{Type: msgBlock, Data: b.Encode()})
		}
	case msgBlock:
		b, err := types.DecodeBlock(m.Data)
		if err != nil {
			return
		}
		n.pool.Adopt(b.Txs)
		n.mu.Lock()
		defer n.mu.Unlock()
		delete(n.requested, b.Hash())
		_ = n.handleBlockFrom(b, m.From)
	}
}

// fetchRetry is how long an unanswered ancestor fetch stays in flight
// before a later trigger may re-issue it (requests and replies can be
// lost like any other message).
const fetchRetry = 5 * time.Second

func (n *Node) requestBlock(from p2p.NodeID, h cryptoutil.Hash) {
	if n.tr == nil || from == "" {
		return
	}
	now := n.cfg.Clock.Now()
	if at, ok := n.requested[h]; ok && now.Sub(at) < fetchRetry {
		return
	}
	n.requested[h] = now
	_ = n.tr.Send(from, p2p.Message{Type: msgGetBlock, Data: []byte(h.Hex())})
}

// expireRequestedLocked drops in-flight fetch entries whose retry
// window has passed, so requests a peer never answers (or blocks that
// arrived via gossip instead of a msgBlock reply) cannot leak map
// entries forever. Swept at most once per fetchRetry interval.
func (n *Node) expireRequestedLocked() {
	if n.cfg.Clock == nil || len(n.requested) == 0 {
		return
	}
	now := n.cfg.Clock.Now()
	if now.Sub(n.lastReqSweep) < fetchRetry {
		return
	}
	n.lastReqSweep = now
	for h, at := range n.requested {
		if now.Sub(at) >= fetchRetry {
			delete(n.requested, h)
		}
	}
}

// HandleBlock validates and integrates a block received from the
// network (or locally mined). Unknown-parent blocks are buffered until
// the parent arrives.
func (n *Node) HandleBlock(b *types.Block) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.handleBlockFrom(b, "")
}

func (n *Node) handleBlockFrom(b *types.Block, from p2p.NodeID) error {
	n.expireRequestedLocked()
	h := b.Hash()
	if n.tree.Has(h) {
		return fmt.Errorf("%w: %s", ErrKnownBlock, h.Short())
	}
	if !n.tree.Has(b.Header.ParentHash) {
		n.bufferOrphanLocked(b, h)
		// Walk back toward the fork point via the sender.
		n.requestBlock(from, b.Header.ParentHash)
		return nil
	}
	if err := n.connect(b, h); err != nil {
		n.countRejectLocked(err)
		return err
	}
	// Connecting may unblock buffered descendants.
	n.adoptOrphans(h)
	n.afterTreeChange()
	return nil
}

// bufferOrphanLocked stores an unknown-parent block, deduplicating by
// hash and evicting the oldest buffered orphan when the cap is hit.
func (n *Node) bufferOrphanLocked(b *types.Block, h cryptoutil.Hash) {
	if _, dup := n.orphanPool[h]; dup {
		return
	}
	for len(n.orphanPool) >= DefaultMaxOrphans {
		n.evictOldestOrphanLocked()
	}
	// Compact stale order entries (adopted orphans leave gaps) so the
	// arrival-order list stays proportional to the pool.
	if len(n.orphanOrder) > 4*DefaultMaxOrphans {
		live := n.orphanOrder[:0:0]
		for _, oh := range n.orphanOrder {
			if _, ok := n.orphanPool[oh]; ok {
				live = append(live, oh)
			}
		}
		n.orphanOrder = live
	}
	n.orphanPool[h] = b
	n.orphanOrder = append(n.orphanOrder, h)
	n.orphans[b.Header.ParentHash] = append(n.orphans[b.Header.ParentHash], h)
	n.metrics.OrphansBuffered++
}

// evictOldestOrphanLocked removes the oldest still-buffered orphan.
func (n *Node) evictOldestOrphanLocked() {
	for len(n.orphanOrder) > 0 {
		h := n.orphanOrder[0]
		n.orphanOrder = n.orphanOrder[1:]
		b, ok := n.orphanPool[h]
		if !ok {
			continue // already adopted or evicted; stale order entry
		}
		n.removeOrphanLocked(b, h)
		n.metrics.OrphansEvicted++
		return
	}
	// Order list exhausted: rebuild invariantly empty structures.
	n.orphanOrder = nil
}

// removeOrphanLocked unlinks an orphan from the pool and its parent's
// waiting list.
func (n *Node) removeOrphanLocked(b *types.Block, h cryptoutil.Hash) {
	delete(n.orphanPool, h)
	waiting := n.orphans[b.Header.ParentHash]
	for i, wh := range waiting {
		if wh == h {
			waiting = append(waiting[:i], waiting[i+1:]...)
			break
		}
	}
	if len(waiting) == 0 {
		delete(n.orphans, b.Header.ParentHash)
	} else {
		n.orphans[b.Header.ParentHash] = waiting
	}
}

// adoptOrphans connects every buffered descendant of parent using an
// iterative worklist, so an arbitrarily long buffered chain cannot
// overflow the stack. When any orphan is adopted, the sweep is recorded
// as one orphan_adopt span whose N is the number of blocks connected.
func (n *Node) adoptOrphans(parent cryptoutil.Hash) {
	sw := obs.StartTimer()
	var adopted uint64
	queue := []cryptoutil.Hash{parent}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		waiting := n.orphans[p]
		if len(waiting) == 0 {
			continue
		}
		delete(n.orphans, p)
		for _, h := range waiting {
			b, ok := n.orphanPool[h]
			if !ok {
				continue // evicted since buffering
			}
			delete(n.orphanPool, h)
			if err := n.connect(b, h); err != nil {
				n.countRejectLocked(err)
				continue
			}
			adopted++
			queue = append(queue, h)
		}
	}
	if adopted > 0 {
		n.obs.Observe(obs.StageOrphanAdopt, sw.Start(), sw.Elapsed(), obs.At{N: adopted})
	}
}

// countRejectLocked counts a block connect refused — unless it was the
// node's own state store that failed (state.ErrRead): that says nothing
// about the block or the peer it came from, and the same block connects
// once the store answers again.
func (n *Node) countRejectLocked(err error) {
	if !errors.Is(err, state.ErrRead) {
		n.metrics.BlocksRejected++
	}
}

// afterTreeChange re-runs the fork choice, updates the main chain, and
// reschedules mining if the tip moved.
func (n *Node) afterTreeChange() {
	defer n.evictBodiesLocked() // once the head is where it will be
	tip, err := n.chooseLocked()
	if err != nil || tip == n.chain.Head() {
		return
	}
	removed, added, err := n.chain.SetHead(tip)
	if err != nil {
		return
	}
	n.checkpointLocked(tip)
	if len(removed) > 0 {
		n.metrics.Reorgs++
		// Give reorged-out transactions another chance.
		for _, h := range removed {
			if b, ok := n.tree.Get(h); ok {
				n.pool.Readd(b.Txs)
			}
		}
	}
	for _, h := range added {
		if b, ok := n.tree.Get(h); ok {
			n.pool.RemoveBlockTxs(b)
			for _, fn := range n.blockSubs {
				fn(b)
			}
		}
	}
	n.pruneStatesLocked()
	if n.started && n.cfg.Mine {
		n.scheduleMine()
	}
}

// chooseLocked runs the fork choice over the tree, observed as
// fork_choice, N = 1 when the answer is not the current head (counted in
// Metrics.ForkChoiceSwitches). Caller holds n.mu.
func (n *Node) chooseLocked() (cryptoutil.Hash, error) {
	sw := obs.StartTimer()
	tip, err := n.cfg.ForkChoice.Choose(n.tree)
	if err != nil {
		return tip, err
	}
	var switched uint64
	if tip != n.chain.Head() {
		n.metrics.ForkChoiceSwitches++
		switched = 1
	}
	n.obs.Observe(obs.StageForkChoice, sw.Start(), sw.Elapsed(), obs.At{N: switched})
	return tip, nil
}

// scheduleMine arms the proposal timer for the current tip.
func (n *Node) scheduleMine() {
	tip := n.chain.Head()
	if n.mineTip == tip && n.mineTimer != nil {
		return // already mining on this tip
	}
	n.mineTimer.Stop()
	n.mineTip = tip
	tipBlock := n.chain.HeadBlock()
	delay, ok := n.cfg.Engine.Delay(tipBlock, n.self)
	if !ok {
		return
	}
	n.mineTimer = n.cfg.Clock.After(delay, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.mineTimer = nil
		if !n.started || n.chain.Head() != tip {
			return // tip moved while waiting
		}
		if err := n.produceBlock(); err == nil {
			n.metrics.BlocksProposed++
		}
		// Keep mining on whatever the tip is now.
		n.mineTip = cryptoutil.ZeroHash
		if n.started {
			n.scheduleMine()
		}
	})
}

// produceBlock assembles, seals, adopts, and gossips a new block on the
// current tip. The whole path — selection, build, seal, adopt — is timed
// as the block_propose stage. The block runs once here, as on every other
// node: the build pass is its execution, the state that pass committed is
// what the store stage takes, and nothing verifies or executes the sealed
// block again on the node that made it.
func (n *Node) produceBlock() error {
	swPropose := obs.StartTimer()
	parent := n.chain.HeadBlock()
	parentHash := parent.Hash()
	now := n.cfg.Clock.Now().UnixNano()
	height := parent.Header.Height + 1
	reward := n.cfg.Rewards.RewardAt(height)

	candidates := n.pool.Select(n.cfg.MaxBlockTxs, 0)
	parentState, err := n.stateOfLocked(parentHash)
	if err != nil {
		return fmt.Errorf("node: no state for tip %s: %w", parentHash.Short(), err)
	}
	st := parentState.Copy()
	n.setExecutorTime(now)

	// Build the block's state the way validation will (state.ApplyBlock:
	// coinbase subsidy first, then the transactions in order), keeping
	// only the transactions that apply on it (wrong nonces or
	// insufficient balances are left pooled).
	st.Credit(n.self, reward)
	txs := make([]*types.Transaction, 1, 1+len(candidates)) // the coinbase first, once the fees are known
	var fees uint64
	for _, tx := range candidates {
		// The coinbase names reward + fees: a fee that would wrap it stays
		// pooled (validation rejects such a block, state.CheckCoinbase).
		if sum := fees + tx.Fee; sum < fees || reward+sum < reward {
			continue
		}
		if _, err := st.ApplyTx(tx, n.self); err != nil {
			continue
		}
		txs = append(txs, tx)
		fees += tx.Fee
	}
	if err := st.Err(); err != nil {
		return fmt.Errorf("node: select transactions: %w", err) // not a verdict on any of them
	}

	txs[0] = types.NewCoinbase(n.self, reward+fees, height)
	b := types.NewBlock(parentHash, height, now, n.self, txs)
	swCommit := obs.StartTimer()
	b.Header.StateRoot = st.Commit()
	commitDur := swCommit.Elapsed()
	if err := st.Err(); err != nil {
		return fmt.Errorf("node: build block: %w", err)
	}
	if err := n.cfg.Engine.Prepare(&b.Header, parent); err != nil {
		return err
	}
	if err := n.cfg.Engine.Seal(b, parent); err != nil {
		return err
	}
	h := b.Hash() // the seal's: known only now
	at := blockAt(b, h)
	n.obs.Observe(obs.StageStateCommit, swCommit.Start(), commitDur, n.commitAt(st, at))
	if err := n.storeLocked(b, h, st); err != nil {
		return err
	}
	n.journalLocked(b, at)
	n.afterTreeChange()
	at.N = uint64(len(txs) - 1)
	n.obs.Observe(obs.StageBlockPropose, swPropose.Start(), swPropose.Elapsed(), at)
	if n.publishIntercept != nil && !n.publishIntercept(b) {
		//dcslint:ignore unbounded withheld buffer is drained by ReleaseWithheld; bounded by the actor's release policy in scenarios
		n.withheld = append(n.withheld, b)
		return nil
	}
	if n.gossiper != nil {
		n.gossiper.Publish(TopicBlock, b.Encode())
	}
	return nil
}

// SetPublishInterceptor installs (or clears, with nil) the block
// publication interceptor. Returning false from fn withholds the block
// from gossip; see ReleaseWithheld. fn runs with the node lock held and
// must not call back into the node.
func (n *Node) SetPublishInterceptor(fn func(*types.Block) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.publishIntercept = fn
}

// ReleaseWithheld publishes every block the interceptor withheld, in
// production order, and returns how many were released.
func (n *Node) ReleaseWithheld() int {
	n.mu.Lock()
	blocks := n.withheld
	n.withheld = nil
	g := n.gossiper
	n.mu.Unlock()
	if g == nil {
		return len(blocks)
	}
	for _, b := range blocks {
		g.Publish(TopicBlock, b.Encode())
	}
	return len(blocks)
}

// WithheldCount reports how many produced blocks are currently withheld.
func (n *Node) WithheldCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.withheld)
}

func (n *Node) setExecutorTime(now int64) {
	if e, ok := n.cfg.Executor.(interface{ SetNow(int64) }); ok {
		e.SetNow(now)
	}
}

// NewGenesis builds the canonical genesis block shared by a network.
func NewGenesis(networkName string) *types.Block {
	g := types.NewBlock(cryptoutil.ZeroHash, 0, 0, cryptoutil.ZeroAddress, nil)
	g.Header.Extra = []byte(networkName)
	return g
}
