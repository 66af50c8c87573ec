package node

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/p2p"
	"dcsledger/internal/seglog"
	"dcsledger/internal/simclock"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

// adoptFixture is a memory-only follower whose genesis funds senders,
// attached to a transport that records what it publishes, and a chain
// builder over the same allocation.
type adoptFixture struct {
	n       *Node
	tr      *fakeTransport
	genesis *types.Block
	bd      *chainBuilder
	senders []*cryptoutil.KeyPair
	miner   cryptoutil.Address
}

func newAdoptFixture(t *testing.T, senders int) *adoptFixture {
	t.Helper()
	f := &adoptFixture{genesis: NewGenesis("adopt-test"), miner: cryptoutil.KeyFromSeed([]byte("adopt-miner")).Address()}
	alloc := map[cryptoutil.Address]uint64{}
	gst := state.New()
	for i := 0; i < senders; i++ {
		k := cryptoutil.KeyFromSeed([]byte{byte(i), 'a'})
		f.senders = append(f.senders, k)
		alloc[k.Address()] = 1 << 20
		gst.Credit(k.Address(), 1<<20)
	}
	n, err := New(Config{
		ID:         "f0",
		Key:        cryptoutil.KeyFromSeed([]byte("adopt-node")),
		Engine:     liteEngine(5),
		ForkChoice: forkchoice.LongestChain{},
		Genesis:    f.genesis,
		Alloc:      alloc,
		Rewards:    incentive.Schedule{InitialReward: 50},
		Clock:      simclock.NewSimulator(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f.n, f.tr = n, &fakeTransport{}
	n.Attach(f.tr, p2p.NewGossiper(f.tr, []p2p.NodeID{"peer"}, 1, rand.New(rand.NewSource(6))))
	f.bd = newChainBuilder(t, f.genesis)
	f.bd.states[f.genesis.Hash()] = gst
	return f
}

// transfer is sender i's transfer with nonce, as a node receives it: decoded
// from its encoding, an instance of its own.
func (f *adoptFixture) transfer(t *testing.T, i int, nonce uint64) *types.Transaction {
	t.Helper()
	k := f.senders[i]
	tx := types.NewTransfer(k.Address(), f.miner, 1, 1, nonce)
	if err := tx.SignDeterministic(k); err != nil {
		t.Fatal(err)
	}
	return decoded(t, tx.Encode())
}

func decoded(t *testing.T, enc []byte) *types.Transaction {
	t.Helper()
	tx, err := types.DecodeTransaction(enc)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestGossipedBlockAdoptsPooledInstances: a follower that pooled a
// block's transactions holds the pool's instances, verified on admission,
// once gossip delivers the block; a transaction the pool lacks is the
// block's own.
func TestGossipedBlockAdoptsPooledInstances(t *testing.T) {
	f := newAdoptFixture(t, 3)
	pooled := []*types.Transaction{f.transfer(t, 0, 0), f.transfer(t, 1, 0)}
	for _, tx := range pooled {
		if err := f.n.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	b := f.bd.extendTxs(f.genesis, f.miner, append(pooled, f.transfer(t, 2, 0))...)
	f.n.onBlockGossip("peer", b.Encode())
	got, err := f.n.Tree().Block(b.Hash())
	if err != nil || f.n.Chain().Head() != b.Hash() {
		t.Fatalf("gossiped block not connected: %v", err)
	}
	for i, tx := range pooled {
		if got.Txs[1+i] != tx {
			t.Fatalf("tx %d of the block is not the pool's instance", 1+i)
		}
	}
	if got.Txs[3] == b.Txs[3] || got.Txs[3].ID() != b.Txs[3].ID() {
		t.Fatal("the unpooled transaction is not the block's decoded copy")
	}
	if f.n.Pool().Len() != 0 {
		t.Fatalf("%d transactions still pooled after their block", f.n.Pool().Len())
	}
}

// TestForgedSignatureOfPooledTxRejected: a block carrying a transaction
// that differs from a pooled one only in its signature bytes — another id,
// so nothing is adopted — is verified and rejected; the honest block
// connects after it.
func TestForgedSignatureOfPooledTxRejected(t *testing.T) {
	f := newAdoptFixture(t, 1)
	tx := f.transfer(t, 0, 0)
	if err := f.n.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	honest := f.bd.extendTxs(f.genesis, f.miner, tx)
	enc := tx.Encode()
	enc[len(enc)-1] ^= 1 // the last byte of Sig
	forged := &types.Block{Header: honest.Header, Txs: []*types.Transaction{honest.Txs[0], decoded(t, enc)}}
	if forged.Txs[1].ID() == tx.ID() {
		t.Fatal("the forgery kept the id")
	}
	forged.Header.TxRoot = forged.ComputeTxRoot()
	if err := f.bd.eng.Seal(forged, f.genesis); err != nil {
		t.Fatal(err)
	}

	before := f.n.Metrics().BlocksRejected
	f.n.onBlockGossip("peer", forged.Encode())
	if got := f.n.Metrics().BlocksRejected; got != before+1 || f.n.Tree().Has(forged.Hash()) {
		t.Fatalf("forged block: %d rejections (before %d), in the tree %v", got, before, f.n.Tree().Has(forged.Hash()))
	}
	if !f.n.Pool().Has(tx.ID()) {
		t.Fatal("the pooled transaction left the pool with the forged block")
	}
	f.n.onBlockGossip("peer", honest.Encode())
	if f.n.Chain().Head() != honest.Hash() {
		t.Fatal("the honest block did not connect after the forged one")
	}
}

// TestLinearChainReadsNoBodyBack: a durable follower that connects 100
// blocks with no fork keeps the bodies of the window — trieRetention + 1
// blocks, and the root's — and reads none back from the journal.
func TestLinearChainReadsNoBodyBack(t *testing.T) {
	n, _, _, genesis := durableNodeOpts(t, t.TempDir(), wal.StoreOptions{Fsync: seglog.SyncNever, CheckpointEvery: 16})
	bd := newChainBuilder(t, genesis)
	for _, b := range bd.chain(genesis, 100, cryptoutil.KeyFromSeed([]byte("linear")).Address()) {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
		}
		if got := n.Tree().BodiesResident() - 1; got > trieRetention+1 {
			t.Fatalf("h=%d: %d bodies resident besides the root, window is %d", b.Header.Height, got, trieRetention)
		}
	}
	if m := n.Metrics(); m.BodyReads != 0 {
		t.Fatalf("%d bodies read back on a chain without forks", m.BodyReads)
	}
}

// TestSubmitTxReturnsWhileNodeLockHeld: a submit — admission, the count
// and the gossip publish — completes while another goroutine holds the
// node lock, as a block connect does.
func TestSubmitTxReturnsWhileNodeLockHeld(t *testing.T) {
	f := newAdoptFixture(t, 1)
	tx := f.transfer(t, 0, 0)
	done := make(chan error, 1)
	f.n.mu.Lock()
	go func() { done <- f.n.SubmitTx(tx) }()
	select {
	case err := <-done:
		f.n.mu.Unlock()
		if err != nil {
			t.Fatalf("SubmitTx: %v", err)
		}
	case <-time.After(10 * time.Second):
		f.n.mu.Unlock()
		t.Fatal("SubmitTx waited on the node lock")
	}
	if got := f.n.Metrics().TxsSubmitted; got != 1 || len(f.tr.sent) != 1 {
		t.Fatalf("TxsSubmitted = %d, %d messages published; want 1 and 1", got, len(f.tr.sent))
	}
}

// TestSubmitAndGossipWhileBlocksAdopt runs under -race: one goroutine
// submits transactions, one delivers others as tx gossip and one reads
// the pool, while gossiped blocks carrying the same transactions adopt
// the pooled instances and connect.
func TestSubmitAndGossipWhileBlocksAdopt(t *testing.T) {
	const senders, blocks = 4, 12
	f := newAdoptFixture(t, senders)
	// Each goroutine gets its own decoded instances; a block carries its
	// own decoded copies, as a follower receives them.
	var submitted, gossiped [][]byte
	var chain []*types.Block
	parent := f.genesis
	for h := 0; h < blocks; h++ {
		var txs []*types.Transaction
		for i := 0; i < senders; i++ {
			tx := f.transfer(t, i, uint64(h))
			txs = append(txs, tx)
			if i%2 == 0 {
				submitted = append(submitted, tx.Encode())
			} else {
				gossiped = append(gossiped, tx.Encode())
			}
		}
		parent = f.bd.extendTxs(parent, f.miner, txs...)
		chain = append(chain, parent)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		for _, enc := range submitted {
			tx, err := types.DecodeTransaction(enc)
			if err != nil {
				t.Error(err)
				return
			}
			_ = f.n.SubmitTx(tx) // after its block has taken it, a stale entry is fine
		}
	}()
	go func() {
		defer wg.Done()
		for _, enc := range gossiped {
			f.n.onTxGossip("peer", enc)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tx := range f.n.Pool().Select(0, 0) {
				if err := tx.Verify(); err != nil {
					t.Errorf("pooled %s: %v", tx.ID().Short(), err)
					return
				}
			}
		}
	}()
	for _, b := range chain {
		f.n.onBlockGossip("peer", b.Encode())
	}
	close(stop)
	wg.Wait()
	if f.n.Chain().Head() != parent.Hash() {
		t.Fatalf("head at height %d, want %d", f.n.Chain().Height(), blocks)
	}
	if m := f.n.Metrics(); m.BlocksRejected != 0 || m.BlocksAccepted != blocks {
		t.Fatalf("%d blocks accepted, %d rejected; want %d and 0", m.BlocksAccepted, m.BlocksRejected, blocks)
	}
}
