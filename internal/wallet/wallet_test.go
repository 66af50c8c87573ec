package wallet

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/node"
	"dcsledger/internal/seglog"
	"dcsledger/internal/simclock"
	"dcsledger/internal/store"
	"dcsledger/internal/types"
	"dcsledger/internal/wal"
)

func TestTransactionBuilders(t *testing.T) {
	w := FromSeed("alice")
	to := FromSeed("bob").Address()

	tr, err := w.Transfer(to, 100, 2)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	if err := tr.Verify(); err != nil {
		t.Fatalf("built transfer invalid: %v", err)
	}
	if tr.Nonce != 0 {
		t.Fatalf("first nonce = %d", tr.Nonce)
	}

	dep, err := w.Deploy([]byte("code"), 0, 10, 1000)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if dep.Kind != types.TxDeploy || dep.Nonce != 1 {
		t.Fatalf("deploy tx = %+v", dep)
	}
	inv, err := w.Invoke(to, []byte("input"), 5, 1, 500)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if inv.Kind != types.TxInvoke || inv.Nonce != 2 {
		t.Fatalf("invoke tx = %+v", inv)
	}
	w.SetNonce(10)
	if w.NextNonce() != 10 {
		t.Fatal("SetNonce not honored")
	}
}

// testEngine is a PoW engine that seals a block every ten simulated
// seconds or so.
func testEngine() consensus.Engine {
	return pow.New(pow.Config{
		TargetInterval:    10 * time.Second,
		InitialDifficulty: 64,
		HashRate:          6.4,
	}, rand.New(rand.NewSource(7)))
}

// minedChain spins a single-node PoW chain with one committed transfer
// and returns the cluster plus the tx id.
func minedChain(t *testing.T) (*node.Cluster, cryptoutil.Hash) {
	t.Helper()
	alice := FromSeed("alice")
	bob := FromSeed("bob")
	c, err := node.NewCluster(node.ClusterConfig{
		N:          1,
		Engine:     func(int, *cryptoutil.KeyPair) consensus.Engine { return testEngine() },
		ForkChoice: func() consensus.ForkChoice { return forkchoice.LongestChain{} },
		Alloc:      map[cryptoutil.Address]uint64{alice.Address(): 1000},
		Rewards:    incentive.Schedule{InitialReward: 50},
		Seed:       42,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	tx, err := alice.Transfer(bob.Address(), 100, 1)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	if err := c.Nodes[0].SubmitTx(tx); err != nil {
		t.Fatalf("SubmitTx: %v", err)
	}
	c.Start()
	c.Sim.RunFor(3 * time.Minute)
	c.Stop()
	if got, err := c.Nodes[0].Balance(bob.Address()); err != nil || got != 100 {
		t.Fatal("setup: transfer not mined")
	}
	return c, tx.ID()
}

func TestSPVEndToEnd(t *testing.T) {
	c, txID := minedChain(t)
	full := c.Nodes[0]

	// The light client syncs headers only.
	light := NewSPVClient(c.Genesis.Header)
	light.CheckSeal = func(h *types.BlockHeader) error {
		if !pow.CheckHeader(h) {
			return errors.New("bad pow")
		}
		return nil
	}
	headers := full.Chain().Headers(1, 1<<20)
	if err := light.AddHeaders(headers); err != nil {
		t.Fatalf("AddHeaders: %v", err)
	}
	if light.Height() != full.Chain().Height() {
		t.Fatalf("light height %d vs full %d", light.Height(), full.Chain().Height())
	}

	// The full node proves; the light client verifies.
	proof, err := ProveTx(full.Chain(), txID)
	if err != nil {
		t.Fatalf("ProveTx: %v", err)
	}
	conf, err := light.VerifyTx(proof)
	if err != nil {
		t.Fatalf("VerifyTx: %v", err)
	}
	if conf == 0 {
		t.Fatal("confirmed tx must have confirmations")
	}

	// The light client's storage is a small fraction of the full chain.
	fullBytes := 0
	for h := uint64(0); h <= full.Chain().Height(); h++ {
		bh, _ := full.Chain().AtHeight(h)
		b, _ := full.Tree().Get(bh)
		fullBytes += b.Size()
	}
	if light.StorageBytes() >= fullBytes {
		t.Fatalf("SPV storage %d not smaller than full %d", light.StorageBytes(), fullBytes)
	}
}

func TestSPVRejectsForgedProof(t *testing.T) {
	c, txID := minedChain(t)
	full := c.Nodes[0]
	light := NewSPVClient(c.Genesis.Header)
	if err := light.AddHeaders(full.Chain().Headers(1, 1<<20)); err != nil {
		t.Fatalf("AddHeaders: %v", err)
	}
	proof, err := ProveTx(full.Chain(), txID)
	if err != nil {
		t.Fatalf("ProveTx: %v", err)
	}

	t.Run("claimed different tx", func(t *testing.T) {
		forged := proof
		forged.TxID = cryptoutil.HashBytes([]byte("phantom payment"))
		if _, err := light.VerifyTx(forged); !errors.Is(err, ErrBadProof) {
			t.Fatalf("want ErrBadProof, got %v", err)
		}
	})
	t.Run("wrong height", func(t *testing.T) {
		forged := proof
		forged.Height = 0
		if _, err := light.VerifyTx(forged); !errors.Is(err, ErrBadProof) {
			t.Fatalf("want ErrBadProof, got %v", err)
		}
	})
	t.Run("height beyond chain", func(t *testing.T) {
		forged := proof
		forged.Height = 10_000
		if _, err := light.VerifyTx(forged); !errors.Is(err, ErrUnknownHeader) {
			t.Fatalf("want ErrUnknownHeader, got %v", err)
		}
	})
}

func TestSPVRejectsBrokenHeaderChain(t *testing.T) {
	c, _ := minedChain(t)
	full := c.Nodes[0]
	light := NewSPVClient(c.Genesis.Header)
	headers := full.Chain().Headers(1, 1<<20)
	// Skip a header: linkage breaks.
	if err := light.AddHeaders(headers[1:]); !errors.Is(err, ErrBrokenHeaderChain) {
		t.Fatalf("want ErrBrokenHeaderChain, got %v", err)
	}
	// Tampered header: linkage breaks at the next one.
	bad := make([]types.BlockHeader, len(headers))
	copy(bad, headers)
	bad[0].Time ^= 1
	if err := light.AddHeaders(bad); !errors.Is(err, ErrBrokenHeaderChain) {
		t.Fatalf("want ErrBrokenHeaderChain, got %v", err)
	}
}

func TestSPVCheckSealRejects(t *testing.T) {
	c, _ := minedChain(t)
	full := c.Nodes[0]
	light := NewSPVClient(c.Genesis.Header)
	light.CheckSeal = func(h *types.BlockHeader) error {
		return errors.New("always suspicious")
	}
	if err := light.AddHeaders(full.Chain().Headers(1, 2)); err == nil {
		t.Fatal("CheckSeal failure must propagate")
	}
}

func TestProveTxUnknown(t *testing.T) {
	c, _ := minedChain(t)
	if _, err := ProveTx(c.Nodes[0].Chain(), cryptoutil.HashBytes([]byte("missing"))); !errors.Is(err, ErrTxNotFound) {
		t.Fatalf("want ErrTxNotFound, got %v", err)
	}
}

// TestProveTxBelowBodyWindow: a durable node has let go of the body of
// the block a transaction is in; the proof is built from the journal's
// copy and verifies against the header.
func TestProveTxBelowBodyWindow(t *testing.T) {
	ds, rec, err := wal.OpenStore(t.TempDir(), wal.StoreOptions{Fsync: seglog.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	alice, bob := FromSeed("alice"), FromSeed("bob")
	sim := simclock.NewSimulator()
	genesis := node.NewGenesis("spv-durable")
	n, err := node.New(node.Config{
		ID:         "full",
		Key:        cryptoutil.KeyFromSeed([]byte("full-node")),
		Engine:     testEngine(),
		ForkChoice: forkchoice.LongestChain{},
		Genesis:    genesis,
		Alloc:      map[cryptoutil.Address]uint64{alice.Address(): 1000},
		Rewards:    incentive.Schedule{InitialReward: 50},
		Clock:      sim,
		Mine:       true,
		Durable:    ds,
	})
	if err == nil {
		err = n.Recover(rec)
	}
	if err != nil {
		t.Fatal(err)
	}
	tx, err := alice.Transfer(bob.Address(), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	n.Start()
	sim.RunFor(20 * time.Minute)
	n.Stop()

	reads := n.Metrics().BodyReads
	proof, err := ProveTx(n.Chain(), tx.ID())
	if err != nil {
		t.Fatalf("ProveTx: %v", err)
	}
	bh, _ := n.Chain().AtHeight(proof.Height)
	if got := n.Metrics().BodyReads; got == reads || n.Tree().BodiesResident() == n.Tree().Len() {
		t.Fatalf("the block at height %d of %d was still resident: nothing was read back", proof.Height, n.Chain().Height())
	}
	light := NewSPVClient(genesis.Header)
	if err := light.AddHeaders(n.Chain().Headers(1, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if conf, err := light.VerifyTx(proof); err != nil || conf != n.Chain().Confirmations(bh) {
		t.Fatalf("VerifyTx: %d confirmations, err %v; the chain says %d", conf, err, n.Chain().Confirmations(bh))
	}
}

// failingBodies is a body source that holds every block and can be made
// to fail every read.
type failingBodies struct {
	blocks map[cryptoutil.Hash]*types.Block
	fail   bool
}

func (s *failingBodies) HasBlock(h cryptoutil.Hash) bool { return s.blocks[h] != nil }

func (s *failingBodies) ReadBlock(h cryptoutil.Hash) (*types.Block, error) {
	if s.fail {
		return nil, errors.New("injected read failure")
	}
	return s.blocks[h], nil
}

// TestProveTxReadFailureIsNotNotFound: a body the journal cannot produce
// is an error that names the block, whether the read fails while the
// transaction is being located or when its block is fetched; it is never
// "not on the main chain".
func TestProveTxReadFailureIsNotNotFound(t *testing.T) {
	genesis := types.NewBlock(cryptoutil.ZeroHash, 0, 0, cryptoutil.ZeroAddress, nil)
	miner := cryptoutil.KeyFromSeed([]byte("miner")).Address()
	b1 := types.NewBlock(genesis.Hash(), 1, 1, miner, []*types.Transaction{types.NewCoinbase(miner, 50, 1)})
	src := &failingBodies{blocks: map[cryptoutil.Hash]*types.Block{b1.Hash(): b1}}
	tree := store.NewBlockTree(genesis)
	tree.SetBodySource(src)
	if err := tree.Add(b1); err != nil {
		t.Fatal(err)
	}
	chain := store.NewChain(tree)
	if _, _, err := chain.SetHead(b1.Hash()); err != nil {
		t.Fatal(err)
	}
	tree.EvictBodies(2)
	txID := b1.Txs[0].ID()

	unreadable := func(stage string) {
		t.Helper()
		src.fail = true
		defer func() { src.fail = false }()
		_, err := ProveTx(chain, txID)
		if err == nil || errors.Is(err, ErrTxNotFound) || !strings.Contains(err.Error(), b1.Hash().Short()) {
			t.Fatalf("%s: err = %v; want a read error naming block %s", stage, err, b1.Hash().Short())
		}
	}
	unreadable("locating the transaction")
	if _, err := ProveTx(chain, txID); err != nil {
		t.Fatalf("ProveTx once the body reads again: %v", err)
	}
	unreadable("fetching its block")
}

func TestAddHeadersIdempotent(t *testing.T) {
	c, _ := minedChain(t)
	full := c.Nodes[0]
	light := NewSPVClient(c.Genesis.Header)
	headers := full.Chain().Headers(1, 1<<20)
	if err := light.AddHeaders(headers); err != nil {
		t.Fatalf("AddHeaders: %v", err)
	}
	if err := light.AddHeaders(headers); err != nil {
		t.Fatalf("re-adding known headers must be a no-op: %v", err)
	}
	if light.Height() != full.Chain().Height() {
		t.Fatal("height changed on duplicate add")
	}
}
