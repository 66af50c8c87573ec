package node

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/p2p"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
)

// liteEngine is a PoW engine whose difficulty stays pinned at the
// minimum (the huge retarget window never triggers an adjustment), so
// sealed test blocks cost ~16 hash attempts each and fork-choice weight
// is proportional to chain length.
func liteEngine(seed int64) consensus.Engine {
	return pow.New(pow.Config{
		TargetInterval:    10 * time.Second,
		InitialDifficulty: pow.MinDifficulty,
		RetargetWindow:    1 << 32,
		HashRate:          1,
	}, rand.New(rand.NewSource(seed)))
}

// chainBuilder seals valid blocks against its own state tracking, so
// tests can hand a node arbitrary branches without running miners.
type chainBuilder struct {
	t       *testing.T
	eng     consensus.Engine
	rewards incentive.Schedule
	states  map[cryptoutil.Hash]*state.State
}

func newChainBuilder(t *testing.T, genesis *types.Block) *chainBuilder {
	t.Helper()
	return &chainBuilder{
		t:       t,
		eng:     liteEngine(1),
		rewards: incentive.Schedule{InitialReward: 50},
		states:  map[cryptoutil.Hash]*state.State{genesis.Hash(): state.New()},
	}
}

// extend seals one coinbase-only block on parent and returns it.
func (bd *chainBuilder) extend(parent *types.Block, miner cryptoutil.Address) *types.Block {
	bd.t.Helper()
	return bd.extendTxs(parent, miner)
}

// extendTxs seals one block carrying txs on parent and returns it.
func (bd *chainBuilder) extendTxs(parent *types.Block, miner cryptoutil.Address, txs ...*types.Transaction) *types.Block {
	bd.t.Helper()
	height := parent.Header.Height + 1
	reward := bd.rewards.RewardAt(height)
	var fees uint64
	for _, tx := range txs {
		fees += tx.Fee
	}
	cb := types.NewCoinbase(miner, reward+fees, height)
	b := types.NewBlock(parent.Hash(), height, parent.Header.Time+int64(10*time.Second),
		miner, append([]*types.Transaction{cb}, txs...))
	st := bd.states[parent.Hash()].Copy()
	if e, ok := st.Executor().(interface{ SetNow(int64) }); ok {
		e.SetNow(b.Header.Time) // contracts see the block's time, as on the node
	}
	if _, err := st.ApplyBlock(b, reward); err != nil {
		bd.t.Fatalf("builder ApplyBlock: %v", err)
	}
	b.Header.StateRoot = st.Commit()
	if err := bd.eng.Prepare(&b.Header, parent); err != nil {
		bd.t.Fatalf("Prepare: %v", err)
	}
	if err := bd.eng.Seal(b, parent); err != nil {
		bd.t.Fatalf("Seal: %v", err)
	}
	bd.states[b.Hash()] = st
	return b
}

// chain seals n successive blocks on parent.
func (bd *chainBuilder) chain(parent *types.Block, n int, miner cryptoutil.Address) []*types.Block {
	out := make([]*types.Block, 0, n)
	for i := 0; i < n; i++ {
		parent = bd.extend(parent, miner)
		out = append(out, parent)
	}
	return out
}

func lifecycleNode(t *testing.T, retention int) (*Node, *types.Block) {
	t.Helper()
	genesis := NewGenesis("lifecycle-test")
	n, err := New(Config{
		ID:             "t0",
		Key:            cryptoutil.KeyFromSeed([]byte("lifecycle-node")),
		Engine:         liteEngine(2),
		ForkChoice:     forkchoice.LongestChain{},
		Genesis:        genesis,
		Rewards:        incentive.Schedule{InitialReward: 50},
		Clock:          simclock.NewSimulator(),
		StateRetention: retention,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n, genesis
}

func TestStateRetentionAndRebuild(t *testing.T) {
	const W = 8
	n, genesis := lifecycleNode(t, W)
	bd := newChainBuilder(t, genesis)
	miner := cryptoutil.KeyFromSeed([]byte("retention-miner")).Address()

	blocks := bd.chain(genesis, 40, miner)
	for _, b := range blocks {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
		}
	}
	if h := n.Chain().Height(); h != 40 {
		t.Fatalf("height = %d, want 40", h)
	}
	// N >> W blocks, but only the window (plus its edge) stays
	// materialized: the node_states_retained gauge value.
	if got := len(n.states); got != W+1 {
		t.Fatalf("states retained = %d, want %d", got, W+1)
	}
	if n.Metrics().StatesPruned == 0 {
		t.Fatal("pruning never ran")
	}

	// A pruned historical state rebuilds by replay and still answers
	// queries correctly.
	old := blocks[2] // height 3, far below the anchor at 32
	st, ok := n.StateAt(old.Hash())
	if !ok {
		t.Fatal("StateAt(pruned block) failed")
	}
	if got := st.Balance(miner); got != 3*50 {
		t.Fatalf("replayed balance = %d, want 150", got)
	}
	if st.Commit() != old.Header.StateRoot {
		t.Fatal("rebuilt state root mismatch")
	}
	if n.Metrics().StateRebuilds == 0 {
		t.Fatal("rebuild metric not incremented")
	}
	// Deep historical queries must not regrow the retained map.
	if got := len(n.states); got != W+1 {
		t.Fatalf("states retained after rebuild = %d, want %d", got, W+1)
	}
	// Head queries keep working off the retained window.
	if got, err := n.Balance(miner); err != nil || got != 40*50 {
		t.Fatalf("head balance = %d, want 2000", got)
	}
}

func TestReorgAcrossRetentionBoundary(t *testing.T) {
	const W = 4
	n, genesis := lifecycleNode(t, W)
	bd := newChainBuilder(t, genesis)
	minerA := cryptoutil.KeyFromSeed([]byte("miner-a")).Address()
	minerB := cryptoutil.KeyFromSeed([]byte("miner-b")).Address()

	chainA := bd.chain(genesis, 20, minerA)
	for _, b := range chainA {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("chain A h=%d: %v", b.Header.Height, err)
		}
	}
	// The fork point (height 2) is far below the anchor (16): its state
	// has been pruned, so switching branches must replay from genesis.
	rebuilds := n.Metrics().StateRebuilds
	chainB := bd.chain(chainA[1], 19, minerB) // heights 3..21 — longer than A
	for _, b := range chainB {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("chain B h=%d: %v", b.Header.Height, err)
		}
	}
	tip := chainB[len(chainB)-1]
	if head := n.Chain().Head(); head != tip.Hash() {
		t.Fatalf("head = %s, want branch B tip %s", head.Short(), tip.Hash().Short())
	}
	if n.Metrics().Reorgs == 0 {
		t.Fatal("reorg not counted")
	}
	if n.Metrics().StateRebuilds <= rebuilds {
		t.Fatal("reorg across the retention boundary must rebuild the fork-point state")
	}
	// Post-reorg accounting is consistent with the new branch.
	if got, err := n.Balance(minerB); err != nil || got != 19*50 {
		t.Fatalf("minerB balance = %d, want 950", got)
	}
	if got, err := n.Balance(minerA); err != nil || got != 2*50 {
		t.Fatalf("minerA balance = %d, want 100 (heights 1-2 only)", got)
	}
}

func TestOrphanBufferBoundedAndDeduped(t *testing.T) {
	const cap, sent = DefaultMaxOrphans, DefaultMaxOrphans + 20
	n, _ := lifecycleNode(t, 0)
	addr := cryptoutil.KeyFromSeed([]byte("spammer")).Address()

	// sent blocks with as many fabricated unknown parents: all buffer,
	// none connect, and the buffer never exceeds its cap.
	junk := make([]*types.Block, sent)
	for i := range junk {
		ph := cryptoutil.HashUint64("junk-parent", uint64(i)) // distinct, certainly-unknown parent hashes
		junk[i] = types.NewBlock(ph, 1, int64(time.Second), addr, nil)
		if err := n.HandleBlock(junk[i]); err != nil {
			t.Fatalf("orphan %d: %v", i, err)
		}
	}
	if got := len(n.orphanPool); got > cap {
		t.Fatalf("orphan buffer %d exceeds cap %d", got, cap)
	}
	m := n.Metrics()
	if m.OrphansBuffered != sent {
		t.Fatalf("OrphansBuffered = %d, want %d", m.OrphansBuffered, sent)
	}
	if m.OrphansEvicted != sent-cap {
		t.Fatalf("OrphansEvicted = %d, want %d", m.OrphansEvicted, sent-cap)
	}
	// Redelivering a still-buffered orphan is deduplicated, not
	// double-buffered.
	if err := n.HandleBlock(junk[len(junk)-1]); err != nil {
		t.Fatalf("redeliver: %v", err)
	}
	if got := n.Metrics().OrphansBuffered; got != sent {
		t.Fatalf("dedup failed: OrphansBuffered = %d, want %d", got, sent)
	}
	if got := len(n.orphanPool); got > cap {
		t.Fatalf("orphan buffer %d exceeds cap %d after redelivery", got, cap)
	}
}

func TestDeepOrphanChainAdoption(t *testing.T) {
	// Deliver a 300-block chain tip-first: every block but the last
	// buffers as an orphan, then the genesis child connects and the whole
	// buffered chain must be adopted iteratively (no recursion limits).
	n, genesis := lifecycleNode(t, -1)
	bd := newChainBuilder(t, genesis)
	miner := cryptoutil.KeyFromSeed([]byte("deep-miner")).Address()
	blocks := bd.chain(genesis, 300, miner)
	for i := len(blocks) - 1; i >= 0; i-- {
		if err := n.HandleBlock(blocks[i]); err != nil {
			t.Fatalf("HandleBlock h=%d: %v", blocks[i].Header.Height, err)
		}
	}
	if h := n.Chain().Height(); h != 300 {
		t.Fatalf("height = %d, want 300", h)
	}
	if got := len(n.orphanPool); got != 0 {
		t.Fatalf("%d orphans left after adoption", got)
	}
	// Archive mode (-1): every post-state stays materialized.
	if got := len(n.states); got != 301 {
		t.Fatalf("archive states retained = %d, want 301", got)
	}
}

// fakeTransport records sends so tests can observe the fetch protocol.
type fakeTransport struct{ sent []p2p.Message }

func (f *fakeTransport) Self() p2p.NodeID { return "self" }
func (f *fakeTransport) Send(_ p2p.NodeID, m p2p.Message) error {
	f.sent = append(f.sent, m)
	return nil
}
func (f *fakeTransport) Peers() []p2p.NodeID { return []p2p.NodeID{"peer"} }

func TestRequestedMapExpiryAndClearOnConnect(t *testing.T) {
	sim := simclock.NewSimulator()
	genesis := NewGenesis("fetch-test")
	n, err := New(Config{
		ID:         "t0",
		Key:        cryptoutil.KeyFromSeed([]byte("fetch-node")),
		Engine:     liteEngine(3),
		ForkChoice: forkchoice.LongestChain{},
		Genesis:    genesis,
		Rewards:    incentive.Schedule{InitialReward: 50},
		Clock:      sim,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tr := &fakeTransport{}
	n.Attach(tr, p2p.NewGossiper(tr, []p2p.NodeID{"peer"}, 1, rand.New(rand.NewSource(4))))

	bd := newChainBuilder(t, genesis)
	miner := cryptoutil.KeyFromSeed([]byte("fetch-miner")).Address()
	b1 := bd.extend(genesis, miner)
	b2 := bd.extend(b1, miner)
	b3 := bd.extend(b2, miner)

	requestedLen := func() int {
		n.mu.Lock()
		defer n.mu.Unlock()
		return len(n.requested)
	}

	// Orphan delivery from a peer triggers an ancestor fetch.
	n.mu.Lock()
	_ = n.handleBlockFrom(b2, "peer")
	n.mu.Unlock()
	if requestedLen() != 1 {
		t.Fatalf("requested len = %d, want 1", requestedLen())
	}
	if len(tr.sent) == 0 {
		t.Fatal("no fetch request sent")
	}

	// The peer never answers. Past the retry window a later trigger
	// sweeps the stale entry instead of leaking it forever.
	sim.RunFor(6 * time.Second)
	n.mu.Lock()
	_ = n.handleBlockFrom(b3, "peer")
	n.mu.Unlock()
	n.mu.Lock()
	_, stale := n.requested[b1.Hash()]
	n.mu.Unlock()
	if stale {
		t.Fatal("expired fetch entry for b1 still present after sweep")
	}

	// A block arriving via gossip (not a msgBlock reply) clears its own
	// in-flight entry on connect.
	sim.RunFor(6 * time.Second)
	n.mu.Lock()
	n.requested[b1.Hash()] = sim.Now() // simulate a fresh in-flight fetch
	_ = n.handleBlockFrom(b1, "peer")
	_, inflight := n.requested[b1.Hash()]
	n.mu.Unlock()
	if inflight {
		t.Fatal("connect must clear the block's in-flight fetch entry")
	}
	if h := n.Chain().Height(); h != 3 {
		t.Fatalf("height = %d, want 3 (orphans adopted)", h)
	}
	if requestedLen() != 0 {
		t.Fatalf("requested len = %d, want 0 after chain completes", requestedLen())
	}
}

// TestTrieRetentionBounded: a node retains every state of its window but
// the tries of only the few nearest the head; the others keep their
// memoized root, and extending one of them still works (it reads and
// commits through the layers down to the base state's trie).
func TestTrieRetentionBounded(t *testing.T) {
	n, genesis := lifecycleNode(t, 0) // DefaultStateRetention: all 60 states stay
	bd := newChainBuilder(t, genesis)
	miner := cryptoutil.KeyFromSeed([]byte("trie-miner")).Address()
	blocks := bd.chain(genesis, 60, miner)
	for _, b := range blocks {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
		}
	}
	if got := len(n.states); got != 61 {
		t.Fatalf("states retained = %d, want 61", got)
	}
	holding := 0
	for _, b := range blocks {
		st, _ := n.StateAt(b.Hash())
		if readDepth(st) == 1 { // answers reads from its own trie
			holding++
			if b.Header.Height+trieRetention < 60 {
				t.Fatalf("state at height %d still holds its trie", b.Header.Height)
			}
		}
		if st.Commit() != b.Header.StateRoot {
			t.Fatalf("height %d: memoized root differs from the header", b.Header.Height)
		}
	}
	if holding != trieRetention+1 {
		t.Fatalf("%d states hold a trie, want the %d nearest the head", holding, trieRetention+1)
	}
	// A branch off a state whose trie was released.
	for _, b := range bd.chain(blocks[19], 3, cryptoutil.KeyFromSeed([]byte("fork-miner")).Address()) {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("fork HandleBlock h=%d: %v", b.Header.Height, err)
		}
	}
}

// TestReadersWalkColdStatesWhileBlocksConnect: goroutines read retained
// post-states deep in the window — states whose tries the node released
// and whose layers it compacts as the head moves on — while blocks
// connect (run under -race). Every state answers what the builder's did
// and commits to its block's root.
func TestReadersWalkColdStatesWhileBlocksConnect(t *testing.T) {
	const window = 64
	n, genesis := lifecycleNode(t, window)
	bd := newChainBuilder(t, genesis)
	miners := make([]cryptoutil.Address, 5)
	for i := range miners {
		miners[i] = cryptoutil.KeyFromSeed([]byte{byte(i), 'w'}).Address()
	}
	var blocks []*types.Block
	want := map[cryptoutil.Hash][]uint64{} // each miner's balance after each block
	for parent, i := genesis, 0; i < 160; i++ {
		parent = bd.extend(parent, miners[i%len(miners)])
		blocks = append(blocks, parent)
		for _, m := range miners {
			want[parent.Hash()] = append(want[parent.Hash()], bd.states[parent.Hash()].Balance(m))
		}
	}
	handleAll(t, n, blocks[:20])
	var connected atomic.Int64
	connected.Store(20)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := int(connected.Load())
				lo := max(0, c-window+8) // well inside the window: retained, mostly cold
				b := blocks[lo+rng.Intn(c-lo)]
				st, ok := n.StateAt(b.Hash())
				if !ok {
					t.Errorf("no state for height %d", b.Header.Height)
					return
				}
				v := st.Copy()
				for i, m := range miners {
					if got := v.Balance(m); got != want[b.Hash()][i] {
						t.Errorf("height %d: miner %d has %d, want %d", b.Header.Height, i, got, want[b.Hash()][i])
						return
					}
				}
				if root := v.Commit(); root != b.Header.StateRoot || v.Err() != nil {
					t.Errorf("height %d: a copy commits to %s, header %s (%v)", b.Header.Height, root.Short(), b.Header.StateRoot.Short(), v.Err())
					return
				}
			}
		}(rand.New(rand.NewSource(int64(g))))
	}
	for _, b := range blocks[20:] {
		if err := n.HandleBlock(b); err != nil {
			t.Errorf("HandleBlock h=%d: %v", b.Header.Height, err)
			break
		}
		connected.Add(1)
	}
	close(stop)
	wg.Wait()
}

// TestHeadStateErrorInsteadOfPanic: when the head state is gone and its
// replay fails, HeadState and Balance say why and State returns nil —
// the conditions under which the read handlers used to dereference nil.
func TestHeadStateErrorInsteadOfPanic(t *testing.T) {
	n, genesis := lifecycleNode(t, 0)
	bd := newChainBuilder(t, genesis)
	miner := cryptoutil.KeyFromSeed([]byte("gone-miner")).Address()
	for _, b := range bd.chain(genesis, 3, miner) {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock: %v", err)
		}
	}
	// Lose every retained state and replay from a base that is not the
	// genesis state: the replayed root cannot match the header.
	n.mu.Lock()
	n.states = map[cryptoutil.Hash]*state.State{}
	n.baseState = state.New()
	n.baseState.Credit(miner, 1)
	n.mu.Unlock()

	if _, err := n.HeadState(); !errors.Is(err, ErrBadStateRoot) {
		t.Fatalf("HeadState error = %v, want ErrBadStateRoot", err)
	}
	if _, err := n.Balance(miner); err == nil {
		t.Fatal("Balance succeeded without a head state")
	}
	if n.State() != nil {
		t.Fatal("State() returned a state it could not produce")
	}
}

// TestSubmitTxVerifiesOutsideNodeLock: admission (an ECDSA verify under
// the pool's own lock) completes while another goroutine holds the node
// lock, as a block connect does (TestSubmitTxReturnsWhileNodeLockHeld
// requires the whole submit to).
func TestSubmitTxVerifiesOutsideNodeLock(t *testing.T) {
	n, _ := lifecycleNode(t, 0)
	alice := cryptoutil.KeyFromSeed([]byte("alice"))
	tx := types.NewTransfer(alice.Address(), cryptoutil.KeyFromSeed([]byte("bob")).Address(), 1, 1, 0)
	if err := tx.Sign(alice); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	n.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- n.SubmitTx(tx) }()
	deadline := time.Now().Add(10 * time.Second)
	for n.Pool().Len() == 0 {
		if time.Now().After(deadline) {
			n.mu.Unlock()
			t.Fatal("SubmitTx did not admit the transaction while the node lock was held")
		}
		time.Sleep(time.Millisecond)
	}
	n.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("SubmitTx: %v", err)
	}
	if got := n.Metrics().TxsSubmitted; got != 1 {
		t.Fatalf("TxsSubmitted = %d, want 1", got)
	}
}
