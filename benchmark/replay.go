package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/contract"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/exec"
	"dcsledger/internal/incentive"
	"dcsledger/internal/mpt"
	"dcsledger/internal/node"
	"dcsledger/internal/nodestore"
	"dcsledger/internal/p2p"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/store"
	"dcsledger/internal/txpool"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// The replay drives the workload's generated stream through each
// layer's public functions in this process, the way a miner and a
// follower call them, with a span around every call. It shares no code
// with the fleet run: it is the single-process baseline of the
// pipeline and the source of the per-layer numbers. The constants
// below are ledgerd's own (cmd/ledgerd/main.go, node.Config defaults).
const (
	replayNetwork     = "dcsledger-devnet"
	replayMaxBlockTxs = 256
	replayDifficulty  = 4096
	// fanoutPerBlock caps how many of a block's transactions are also
	// gossiped one by one over loopback TCP; each is a full round trip.
	fanoutPerBlock = 32
	proofProbes    = 64
)

var replayRewards = incentive.Schedule{InitialReward: 50, HalvingInterval: 210_000}

// replay runs the pipeline twice over the same inputs, first without
// spans and then with them, and derives the per-layer metrics from the
// traced pass. It returns one line per failed check.
func replay(cfg runConfig, in *inputs, blockTxs, poolDepth int) (map[string]metric, []string, error) {
	plain, err := replayPass(cfg, in, blockTxs, poolDepth, nil)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	traced, err := replayPass(cfg, in, blockTxs, poolDepth, rec)
	if err != nil {
		return nil, nil, err
	}
	rec.finish()
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := rec.write(filepath.Join(cfg.traceDir, "trace-"+cfg.w.name+".jsonl")); err != nil {
		return nil, nil, err
	}
	out := traced.metrics(rec, cfg.w.backend == "disk")
	out["replay.trace_overhead_share"] = metric{
		Value: ratio(float64(traced.wall-plain.wall), float64(plain.wall)), Unit: "ratio",
	}
	return out, traced.checks, nil
}

// pass is what one run of the replay pipeline counted.
type pass struct {
	wall   time.Duration
	checks []string

	blocks, txs     int
	blockBytes      int
	accounts        int
	execTxs         int // transactions the follower's executor applied
	execReplayed    int
	execLanes       int
	execMergedLanes int
	walBytes        uint64
	walFsyncs       uint64
	nsBytes         uint64
	nsHits, nsMiss  uint64
}

// chainSide is the consensus-side state one role (miner, follower)
// keeps: its engine, block tree, canonical chain, per-block states and
// durable store.
type chainSide struct {
	interval time.Duration
	engine   *pow.Engine
	tree     *store.BlockTree
	chain    *store.Chain
	states   map[cryptoutil.Hash]*state.State
	ds       *wal.DurableStore
	ex       *exec.Executor
}

type treeReader struct{ tree *store.BlockTree }

func (r treeReader) HeaderByHash(h cryptoutil.Hash) (*types.BlockHeader, bool) {
	b, ok := r.tree.Get(h)
	if !ok {
		return nil, false
	}
	return &b.Header, true
}

func newChainSide(w workload, dir string, genesis *types.Block, gst *state.State) (*chainSide, error) {
	ds, _, err := openDurable(w, dir)
	if err != nil {
		return nil, err
	}
	tree := store.NewBlockTree(genesis)
	eng := newEngine(w)
	eng.SetHeaderReader(treeReader{tree})
	return &chainSide{
		interval: w.interval,
		engine:   eng,
		tree:     tree,
		chain:    store.NewChain(tree),
		states:   map[cryptoutil.Hash]*state.State{genesis.Hash(): gst},
		ds:       ds,
		ex:       &exec.Executor{Workers: runtime.GOMAXPROCS(0)},
	}, nil
}

// genesisState funds the workload's allocation, as node.New does.
func genesisState(in *inputs) *state.State {
	st := state.New()
	st.SetExecutor(contract.NewExecutor(contract.NewRegistry()))
	for _, g := range in.grants() {
		st.Credit(g.addr, g.amount)
	}
	return st
}

// The three constructors below configure an engine, a durable store
// and a node store the way cmd/ledgerd does for the workload's flags.

func newEngine(w workload) *pow.Engine {
	return pow.New(pow.Config{
		TargetInterval:    w.interval,
		InitialDifficulty: replayDifficulty,
		HashRate:          replayDifficulty / w.interval.Seconds(),
	}, rand.New(rand.NewSource(1)))
}

func openDurable(w workload, dir string) (*wal.DurableStore, *wal.Recovery, error) {
	pol, err := wal.ParseFsyncPolicy(w.fsync)
	if err != nil {
		return nil, nil, err
	}
	return wal.OpenStore(dir, wal.StoreOptions{Fsync: pol, CheckpointEvery: checkpointEvery})
}

func openNodeStore(w workload, dir string) (*nodestore.Store, error) {
	pol, err := nodestore.ParseSyncPolicy(w.fsync)
	if err != nil {
		return nil, err
	}
	return nodestore.Open(dir, nodestore.Options{Sync: pol, CacheBytes: w.stateCache})
}

func replayPass(cfg runConfig, in *inputs, blockTxs, poolDepth int, rec *recorder) (*pass, error) {
	dir := filepath.Join(cfg.workDir, "replay")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &pass{}
	began := time.Now()

	genesis := node.NewGenesis(replayNetwork)
	self := cryptoutil.KeyFromSeed([]byte("ledgerd/n0")).Address()
	miner, err := newChainSide(cfg.w, filepath.Join(dir, "miner"), genesis, genesisState(in))
	if err != nil {
		return nil, err
	}
	defer miner.ds.Close()
	follower, err := newChainSide(cfg.w, filepath.Join(dir, "follower"), genesis, genesisState(in))
	if err != nil {
		return nil, err
	}
	defer follower.ds.Close()
	p.accounts = follower.states[genesis.Hash()].Len()

	// The follower's disk mirror of the account trie, seeded with the
	// genesis trie as the node seeds it. Memory-backend workloads run
	// it too: the metric is what the layer would cost on these inputs.
	ns, err := openNodeStore(cfg.w, filepath.Join(dir, "follower", "state"))
	if err != nil {
		return nil, err
	}
	defer ns.Close()
	parentRoot, err := commitTrie(ns, 0, follower.states[genesis.Hash()].AccountTrie())
	if err != nil {
		return nil, err
	}

	// The composite: a real node.Node configured as a ledgerd follower.
	composite, stores, err := newCompositeNode(cfg.w, filepath.Join(dir, "node"), in)
	if err != nil {
		return nil, err
	}
	defer func() { stores.close() }() // stores is reassigned at recovery

	mesh, err := newLoopbackMesh()
	if err != nil {
		return nil, err
	}
	defer mesh.close()

	// The stream, as the bytes a node receives: POST bodies carry the
	// same canonical encoding.
	var wire [][]byte
	if in.deploy != nil {
		wire = append(wire, in.deploy.tx.Encode())
	}
	for i := range in.txs {
		wire = append(wire, in.txs[i].tx.Encode())
	}
	poolDepth = min(poolDepth, len(wire)/2)
	blocks := min(cfg.replayBlocks, (len(wire)-poolDepth)/blockTxs)
	if blocks == 0 {
		return nil, fmt.Errorf("stream of %d transactions is shorter than one block of %d", len(wire), blockTxs)
	}

	// Both pools start as deep as the miner's mempool was on average in
	// the fleet run, so select and remove work on a pool of that size.
	// The prefill is not traced: it is set-up, not a block's work.
	minerPool := txpool.New(0)
	followerPool := txpool.New(0)
	fed := 0
	for ; fed < poolDepth; fed++ {
		tx, err := types.DecodeTransaction(wire[fed])
		if err != nil {
			return nil, err
		}
		if err := minerPool.Add(tx); err != nil {
			return nil, err
		}
		_ = followerPool.Add(tx) // same transaction, cannot fail differently
	}

	for i := 1; i <= blocks; i++ {
		// ---- miner: admit this block's share of the stream, then
		// build, seal, journal and send a block.
		root := rec.begin("miner", "block", i)
		var admitted []*types.Transaction
		for ; fed < poolDepth+i*blockTxs; fed++ {
			id := rec.begin("miner", "types.tx_decode", i)
			tx, err := types.DecodeTransaction(wire[fed])
			rec.end(id)
			if err != nil {
				return nil, err
			}
			id = rec.begin("miner", "types.tx_verify", i)
			err = tx.Verify()
			rec.end(id)
			if err != nil {
				return nil, err
			}
			id = rec.begin("miner", "txpool.add", i)
			err = minerPool.Add(tx)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			admitted = append(admitted, tx)
		}
		b, err := miner.propose(rec, i, minerPool, self)
		if err != nil {
			return nil, fmt.Errorf("miner block %d: %w", i, err)
		}
		id := rec.begin("miner", "types.block_encode", i)
		enc := b.Encode()
		rec.end(id)
		if err := miner.journal(rec, "miner", i, b); err != nil {
			return nil, err
		}
		id = rec.begin("miner", "txpool.remove_block", i)
		minerPool.RemoveBlockTxs(b)
		rec.end(id)
		rec.end(root)

		// ---- p2p: the block frame and a sample of the admitted
		// transactions cross real loopback TCP connections.
		id = rec.begin("p2p", "p2p.block_send", i)
		err = mesh.sendBlock(enc)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		for _, tx := range admitted[:min(fanoutPerBlock, len(admitted))] {
			id = rec.begin("p2p", "p2p.tx_fanout", i)
			err = mesh.publishTx(tx.Encode())
			rec.end(id)
			if err != nil {
				return nil, err
			}
		}

		// ---- follower: decode, verify, execute, commit, store,
		// choose, journal, mirror.
		for _, tx := range admitted {
			_ = followerPool.Add(tx) // untimed: only so that remove_block has work
		}
		var (
			fb    *types.Block
			stats *exec.Stats
		)
		runFollower := func() error {
			root := rec.begin("follower", "block", i)
			id := rec.begin("follower", "types.block_decode", i)
			var err error
			fb, err = types.DecodeBlock(enc)
			rec.end(id)
			if err != nil {
				return err
			}
			var st *state.State
			if st, stats, err = follower.connect(rec, i, fb); err != nil {
				return fmt.Errorf("follower block %d: %w", i, err)
			}
			if err := follower.journal(rec, "follower", i, fb); err != nil {
				return err
			}
			id = rec.begin("follower", "nodestore.commit", i)
			mirrored, err := mirrorBlock(ns, parentRoot, uint64(i), st)
			rec.end(id)
			if err != nil {
				return err
			}
			id = rec.begin("follower", "txpool.remove_block", i)
			followerPool.RemoveBlockTxs(fb)
			rec.end(id)
			rec.end(root)
			parentRoot = mirrored
			return nil
		}

		// ---- the same block through a real node.Node: its
		// transactions by SubmitTx, then the block by HandleBlock.
		runNode := func() error {
			for _, tx := range b.Txs[1:] {
				ntx, err := types.DecodeTransaction(tx.Encode())
				if err != nil {
					return err
				}
				id := rec.begin("node", "node.submit_tx", i)
				err = composite.SubmitTx(ntx)
				rec.end(id)
				if err != nil {
					return err
				}
			}
			nb, err := types.DecodeBlock(enc)
			if err != nil {
				return err
			}
			id := rec.begin("node", "node.handle_block", i)
			err = composite.HandleBlock(nb)
			rec.end(id)
			if err != nil {
				return fmt.Errorf("node block %d: %w", i, err)
			}
			return nil
		}

		// Whoever handles a block second finds the caches warm; taking
		// turns keeps that out of the comparison of the two.
		order := []func() error{runFollower, runNode}
		if i%2 == 0 {
			order[0], order[1] = order[1], order[0]
		}
		for _, run := range order {
			if err := run(); err != nil {
				return nil, err
			}
		}

		// Every way of computing the root must agree with the header:
		// parallel (checked in connect), serial, and the disk mirror.
		serial := follower.states[fb.Header.ParentHash].Copy()
		if _, err := serial.ApplyBlock(fb, replayRewards.RewardAt(uint64(i))); err != nil {
			return nil, err
		}
		if sr := serial.Commit(); sr != fb.Header.StateRoot || parentRoot != fb.Header.StateRoot {
			p.checks = append(p.checks, fmt.Sprintf("replay block %d: header root %s, serial %s, disk mirror %s",
				i, fb.Header.StateRoot.Short(), sr.Short(), parentRoot.Short()))
		}

		p.blocks++
		p.txs += len(fb.Txs) - 1
		p.blockBytes += len(enc)
		p.execTxs += stats.Txs
		p.execReplayed += stats.ReplayedTxs
		p.execLanes += stats.Runs
		p.execMergedLanes += stats.MergedRuns
	}
	head := follower.chain.Head()
	if composite.Chain().Head() != head {
		p.checks = append(p.checks, "replay: node.Node and the layer-by-layer follower ended on different heads")
	}

	// Proofs from the mirrored trie.
	rng := rand.New(rand.NewSource(cfg.seed))
	tr := mpt.Load(parentRoot, 0, ns)
	for k := 0; k < proofProbes; k++ {
		addr := in.senders[rng.Intn(len(in.senders))].Address()
		id := rec.begin("follower", "nodestore.prove", blocks)
		proof, err := tr.Prove(addr[:])
		rec.end(id)
		if err != nil {
			return nil, err
		}
		if _, _, err := mpt.VerifyProof(parentRoot, addr[:], proof); err != nil {
			p.checks = append(p.checks, "replay: proof of "+addr.Short()+" does not verify")
		}
	}

	ws := follower.ds.Stats().WAL
	p.walBytes, p.walFsyncs = ws.Bytes, ws.Fsyncs
	nst := ns.Stats()
	p.nsBytes, p.nsHits, p.nsMiss = nst.Bytes, nst.CacheHits, nst.CacheMisses

	// Recovery: close the composite node's stores and open the data
	// directory again, as a restarted ledgerd does.
	if err := stores.close(); err != nil {
		return nil, err
	}
	id := rec.begin("node", "wal.recover", blocks)
	composite, stores, err = newCompositeNode(cfg.w, filepath.Join(dir, "node"), in)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	if composite.Chain().Head() != head {
		p.checks = append(p.checks, "replay: recovery did not restore the head")
	}

	p.wall = time.Since(began)
	return p, nil
}

// propose is the miner's produceBlock, call by call: select, filter on
// a scratch copy, execute through the block executor, commit, seal.
func (c *chainSide) propose(rec *recorder, i int, pool *txpool.Pool, self cryptoutil.Address) (*types.Block, error) {
	parent := c.chain.HeadBlock()
	parentState := c.states[parent.Hash()]
	height := parent.Header.Height + 1
	reward := replayRewards.RewardAt(height)

	id := rec.begin("miner", "txpool.select", i)
	candidates := pool.Select(replayMaxBlockTxs, 0)
	rec.end(id)

	id = rec.begin("miner", "state.apply_tx_filter", i)
	scratch := parentState.Copy()
	var included []*types.Transaction
	var fees uint64
	for _, tx := range candidates {
		if _, err := scratch.ApplyTx(tx, self); err != nil {
			continue
		}
		included = append(included, tx)
		fees += tx.Fee
	}
	rec.end(id)

	txs := append([]*types.Transaction{types.NewCoinbase(self, reward+fees, height)}, included...)
	// Header times advance by the target interval, so difficulty
	// retargeting sees the schedule ledgerd aims for.
	b := types.NewBlock(parent.Hash(), height, int64(height)*int64(c.interval), self, txs)
	id = rec.begin("miner", "exec.apply_block", i)
	st, _, _, err := c.ex.ApplyBlock(parentState, b, reward)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("miner", "state.commit", i)
	b.Header.StateRoot = st.Commit()
	rec.end(id)
	id = rec.begin("miner", "pow.seal", i)
	err = c.engine.Prepare(&b.Header, parent)
	if err == nil {
		err = c.engine.Seal(b, parent)
	}
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if err := c.tree.Add(b); err != nil {
		return nil, err
	}
	c.states[b.Hash()] = st
	if _, _, err := c.chain.SetHead(b.Hash()); err != nil {
		return nil, err
	}
	return b, nil
}

// connect is the follower's validate-and-store path, call by call.
func (c *chainSide) connect(rec *recorder, i int, b *types.Block) (*state.State, *exec.Stats, error) {
	parent, ok := c.tree.Get(b.Header.ParentHash)
	if !ok {
		return nil, nil, store.ErrUnknownParent
	}
	id := rec.begin("follower", "types.tx_root", i)
	ok = b.VerifyTxRoot()
	rec.end(id)
	if !ok {
		return nil, nil, node.ErrBadTxRoot
	}
	id = rec.begin("follower", "types.verify_batch", i)
	err := types.VerifyBatch(b.Txs)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = rec.begin("follower", "pow.verify_seal", i)
	err = c.engine.VerifySeal(b, parent)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = rec.begin("follower", "exec.apply_block", i)
	st, _, stats, err := c.ex.ApplyBlock(c.states[b.Header.ParentHash], b, replayRewards.RewardAt(b.Header.Height))
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = rec.begin("follower", "state.commit", i)
	root := st.Commit()
	rec.end(id)
	if root != b.Header.StateRoot {
		return nil, nil, fmt.Errorf("%w: parallel root %s, header %s", node.ErrBadStateRoot, root.Short(), b.Header.StateRoot.Short())
	}
	id = rec.begin("follower", "store.tree_add", i)
	err = c.tree.Add(b)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	c.states[b.Hash()] = st
	id = rec.begin("follower", "forkchoice.choose", i)
	tip, err := forkchoice.LongestChain{}.Choose(c.tree)
	if err == nil {
		_, _, err = c.chain.SetHead(tip)
	}
	rec.end(id)
	return st, stats, err
}

// journal writes the block and the head switch to the side's durable
// store and checkpoints on the fleet's cadence, as the node does.
func (c *chainSide) journal(rec *recorder, side string, i int, b *types.Block) error {
	id := rec.begin(side, "wal.log_block", i)
	err := c.ds.LogBlock(b)
	if err == nil {
		err = c.ds.LogHead(b.Hash())
	}
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin(side, "wal.checkpoint", i)
	_, err = c.ds.MaybeCheckpoint(b, b.Header.StateRoot, c.states[b.Hash()])
	rec.end(id)
	return err
}

// commitTrie writes tr's new nodes to the store in one batch.
func commitTrie(ns *nodestore.Store, height uint64, tr *mpt.Trie) (cryptoutil.Hash, error) {
	batch := ns.NewBatch(height)
	root, err := tr.Commit(batch)
	if err != nil {
		return cryptoutil.ZeroHash, err
	}
	return root, batch.Commit()
}

// mirrorBlock extends the persisted parent trie with the leaves the
// block dirtied, the node's incremental disk-mirror path.
func mirrorBlock(ns *nodestore.Store, parentRoot cryptoutil.Hash, height uint64, st *state.State) (cryptoutil.Hash, error) {
	tr := mpt.Load(parentRoot, 0, ns)
	var err error
	for _, addr := range st.DirtyAddresses() {
		if leaf, ok := st.AccountLeaf(addr); ok {
			tr, err = tr.TrySet(addr[:], leaf)
		} else {
			tr, _, err = tr.TryDelete(addr[:])
		}
		if err != nil {
			return cryptoutil.ZeroHash, err
		}
	}
	return commitTrie(ns, height, tr)
}

// compositeStores are the stores behind the composite node.
type compositeStores struct {
	ds     *wal.DurableStore
	ns     *nodestore.Store // nil on the memory backend
	closed bool
}

func (s *compositeStores) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.ds.Close()
	if s.ns != nil {
		err = errors.Join(err, s.ns.Close())
	}
	return err
}

// newCompositeNode opens dir the way ledgerd does and returns a
// follower node recovered from whatever the directory holds.
func newCompositeNode(w workload, dir string, in *inputs) (*node.Node, *compositeStores, error) {
	ds, recovery, err := openDurable(w, dir)
	if err != nil {
		return nil, nil, err
	}
	stores := &compositeStores{ds: ds}
	if w.backend == "disk" {
		if stores.ns, err = openNodeStore(w, filepath.Join(dir, "state")); err != nil {
			ds.Close()
			return nil, nil, err
		}
	}
	alloc := make(map[cryptoutil.Address]uint64)
	for _, g := range in.grants() {
		alloc[g.addr] = g.amount
	}
	n, err := node.New(node.Config{
		ID:          "n1",
		Key:         cryptoutil.KeyFromSeed([]byte("ledgerd/n1")),
		Engine:      newEngine(w),
		ForkChoice:  forkchoice.LongestChain{},
		Genesis:     node.NewGenesis(replayNetwork),
		Alloc:       alloc,
		Executor:    contract.NewExecutor(contract.NewRegistry()),
		Rewards:     replayRewards,
		Clock:       simclock.Wall{},
		Durable:     ds,
		DiskState:   stores.ns,
		ExecWorkers: runtime.GOMAXPROCS(0),
	})
	if err == nil {
		err = n.Recover(recovery)
	}
	if err != nil {
		stores.close()
		return nil, nil, err
	}
	return n, stores, nil
}

// loopbackMesh is three TCP transports on loopback: a sender and the
// two neighbours a ledgerd node of the fleet has.
type loopbackMesh struct {
	trs     []*p2p.TCPTransport
	gossips []*p2p.Gossiper
	blockIn chan struct{}
	txIn    chan struct{}
}

const (
	meshBlockType = "bench/block"
	meshTopic     = "tx"
	meshTimeout   = 5 * time.Second
)

func newLoopbackMesh() (*loopbackMesh, error) {
	// Buffered for the two deliveries one publish causes, so a handler
	// never blocks a transport reader.
	m := &loopbackMesh{blockIn: make(chan struct{}, 1), txIn: make(chan struct{}, 2)}
	ids := []p2p.NodeID{"a", "b", "c"}
	muxes := make([]*p2p.Mux, len(ids))
	for i, id := range ids {
		muxes[i] = p2p.NewMux()
		tr, err := p2p.NewTCPTransport(id, "127.0.0.1:0", muxes[i].Dispatch)
		if err != nil {
			m.close()
			return nil, err
		}
		m.trs = append(m.trs, tr)
	}
	for i, tr := range m.trs {
		var neighbours []p2p.NodeID
		for j, other := range m.trs {
			if i != j {
				tr.AddPeer(ids[j], other.Addr())
				neighbours = append(neighbours, ids[j])
			}
		}
		g := p2p.NewGossiper(tr, neighbours, len(neighbours), rand.New(rand.NewSource(int64(i)+1)))
		muxes[i].Handle(p2p.GossipMsgType, g.HandleMessage)
		if i > 0 {
			g.Subscribe(meshTopic, func(p2p.NodeID, []byte) { m.txIn <- struct{}{} })
		}
		m.gossips = append(m.gossips, g)
	}
	muxes[1].Handle(meshBlockType, func(p2p.Message) { m.blockIn <- struct{}{} })
	return m, nil
}

func (m *loopbackMesh) close() {
	for _, tr := range m.trs {
		tr.Close()
	}
}

// sendBlock sends one block-sized frame from a to b and returns when
// b's handler has it.
func (m *loopbackMesh) sendBlock(enc []byte) error {
	if err := m.trs[0].Send("b", p2p.Message{Type: meshBlockType, Data: enc}); err != nil {
		return err
	}
	return waitSignal(m.blockIn, 1)
}

// publishTx gossips one transaction from a and returns when both
// neighbours' subscribers have it.
func (m *loopbackMesh) publishTx(enc []byte) error {
	m.gossips[0].Publish(meshTopic, enc)
	return waitSignal(m.txIn, 2)
}

func waitSignal(ch chan struct{}, n int) error {
	timeout := time.After(meshTimeout)
	for ; n > 0; n-- {
		select {
		case <-ch:
		case <-timeout:
			return errors.New("loopback delivery timed out")
		}
	}
	return nil
}

// metrics turns the traced pass's spans and counters into the replay's
// per-layer metrics.
func (p *pass) metrics(rec *recorder, diskBackend bool) map[string]metric {
	out := make(map[string]metric)
	blocks, txs := float64(p.blocks), float64(p.txs)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	perTx := func(name, side, op string) {
		d, n := rec.total(side, op)
		out[name] = metric{Value: ratio(us(d), float64(n)), Unit: "us", Samples: n}
	}
	perBlockUs := func(name, side, op string) {
		d, n := rec.total(side, op)
		out[name] = metric{Value: ratio(us(d), blocks), Unit: "us", Samples: n}
	}
	perBlockMs := func(name, side, op string) {
		d, n := rec.total(side, op)
		out[name] = metric{Value: ratio(ms(d), blocks), Unit: "ms", Samples: n}
	}
	perTx("types.tx_decode.us_per_tx", "miner", "types.tx_decode")
	perTx("types.tx_verify.us_per_tx", "miner", "types.tx_verify")
	perBlockMs("types.verify_batch.ms_per_block", "follower", "types.verify_batch")
	perBlockUs("types.block_encode.us_per_block", "miner", "types.block_encode")
	perBlockUs("types.block_decode.us_per_block", "follower", "types.block_decode")
	out["types.block_bytes"] = metric{Value: ratio(float64(p.blockBytes), blocks), Unit: "bytes", Samples: p.blocks}
	perTx("txpool.add.us_per_tx", "miner", "txpool.add")
	perBlockMs("txpool.select.ms_per_block", "miner", "txpool.select")
	perBlockMs("txpool.remove_block.ms_per_block", "miner", "txpool.remove_block")
	perBlockMs("state.apply_tx_filter.ms_per_block", "miner", "state.apply_tx_filter")
	perBlockMs("exec.apply_block.ms_per_block", "follower", "exec.apply_block")
	out["exec.replayed_share"] = metric{Value: ratio(float64(p.execReplayed), float64(p.execTxs)), Unit: "ratio", Samples: p.execTxs}
	out["exec.merged_lane_share"] = metric{Value: ratio(float64(p.execMergedLanes), float64(p.execLanes)), Unit: "ratio", Samples: p.execLanes}
	perBlockMs("state.commit.ms_per_block", "follower", "state.commit")
	out["state.accounts"] = metric{Value: float64(p.accounts), Unit: "count"}
	perBlockMs("pow.seal.ms_per_block", "miner", "pow.seal")
	perBlockUs("pow.verify_seal.us_per_block", "follower", "pow.verify_seal")
	perBlockUs("store.tree_add.us_per_block", "follower", "store.tree_add")
	perBlockUs("forkchoice.choose.us_per_block", "follower", "forkchoice.choose")
	perBlockMs("wal.log_block.ms_per_block", "follower", "wal.log_block")
	out["wal.bytes_per_block"] = metric{Value: ratio(float64(p.walBytes), blocks), Unit: "bytes", Samples: p.blocks}
	out["wal.fsyncs_per_block"] = metric{Value: ratio(float64(p.walFsyncs), blocks), Unit: "count", Samples: p.blocks}
	perBlockMs("wal.recover.ms_per_block", "node", "wal.recover")
	perBlockMs("nodestore.commit.ms_per_block", "follower", "nodestore.commit")
	out["nodestore.bytes_per_block"] = metric{Value: ratio(float64(p.nsBytes), blocks), Unit: "bytes", Samples: p.blocks}
	out["nodestore.cache_hit_share"] = metric{Value: ratio(float64(p.nsHits), float64(p.nsHits+p.nsMiss)), Unit: "ratio", Samples: int(p.nsHits + p.nsMiss)}
	perTx("nodestore.prove.us", "follower", "nodestore.prove")
	perTx("p2p.block_send.us", "p2p", "p2p.block_send")
	perTx("p2p.tx_fanout.us_per_tx", "p2p", "p2p.tx_fanout")
	perTx("node.submit_tx.us_per_tx", "node", "node.submit_tx")
	perBlockMs("node.handle_block.ms_per_block", "node", "node.handle_block")

	// What the node spends in HandleBlock beyond the layer calls a
	// follower makes for the same block: locking, bookkeeping, metrics,
	// pruning, and anything a span does not cover yet.
	ops := []string{
		"types.tx_root", "types.verify_batch", "pow.verify_seal", "exec.apply_block", "state.commit",
		"store.tree_add", "forkchoice.choose", "wal.log_block", "wal.checkpoint", "txpool.remove_block",
	}
	if diskBackend {
		ops = append(ops, "nodestore.commit") // the node only mirrors on the disk backend
	}
	var layers time.Duration
	for _, op := range ops {
		d, _ := rec.total("follower", op)
		layers += d
	}
	whole, _ := rec.total("node", "node.handle_block")
	out["node.connect.unattributed_share"] = metric{Value: 1 - ratio(float64(layers), float64(whole)), Unit: "ratio", Samples: p.blocks}
	out["replay.txs_per_block"] = metric{Value: ratio(txs, blocks), Unit: "count", Samples: p.blocks}
	return out
}
