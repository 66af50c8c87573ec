package node

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/poet"
	"dcsledger/internal/consensus/pos"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/simclock"
	"dcsledger/internal/types"
)

// powCluster builds an n-peer Bitcoin-like cluster with a 10s virtual
// block interval and cheap real puzzles.
func powCluster(t *testing.T, n int, seed int64, alloc map[cryptoutil.Address]uint64) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		N: n,
		Engine: func(i int, key *cryptoutil.KeyPair) consensus.Engine {
			return pow.New(pow.Config{
				TargetInterval:    10 * time.Second,
				InitialDifficulty: 256,
				HashRate:          25.6, // equilibrium difficulty ≈ 256
			}, rand.New(rand.NewSource(seed+int64(i)+100)))
		},
		ForkChoice: func() consensus.ForkChoice { return forkchoice.LongestChain{} },
		Alloc:      alloc,
		Rewards:    incentive.Schedule{InitialReward: 50},
		Seed:       seed,
		Latency:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func TestPoWClusterConverges(t *testing.T) {
	c := powCluster(t, 8, 1, nil)
	c.Start()
	c.Sim.RunFor(5 * time.Minute)
	c.Stop()
	c.Sim.RunFor(time.Minute) // drain in-flight gossip

	h := c.Nodes[0].Chain().Height()
	if h < 10 {
		t.Fatalf("only %d blocks in 5 virtual minutes", h)
	}
	prefix := c.ConsistentPrefix()
	// All peers agree except possibly the freshest tip.
	if prefix+2 < h {
		t.Fatalf("consistent prefix %d far behind height %d", prefix, h)
	}
	// Rewards were minted to miners.
	var minted uint64
	for _, n := range c.Nodes {
		minted += c.Nodes[0].State().Balance(n.Address())
	}
	if minted == 0 {
		t.Fatal("block rewards missing")
	}
}

func TestTransfersReachEveryPeer(t *testing.T) {
	alice := cryptoutil.KeyFromSeed([]byte("alice"))
	bob := cryptoutil.KeyFromSeed([]byte("bob"))
	alloc := map[cryptoutil.Address]uint64{alice.Address(): 10_000}
	c := powCluster(t, 6, 2, alloc)
	c.Start()

	for i := 0; i < 5; i++ {
		tx := types.NewTransfer(alice.Address(), bob.Address(), 100, 2, uint64(i))
		if err := tx.Sign(alice); err != nil {
			t.Fatalf("Sign: %v", err)
		}
		if err := c.Nodes[i%len(c.Nodes)].SubmitTx(tx); err != nil {
			t.Fatalf("SubmitTx: %v", err)
		}
	}
	c.Sim.RunFor(5 * time.Minute)
	c.Stop()
	c.Sim.RunFor(time.Minute)

	for i, n := range c.Nodes {
		if got, err := n.Balance(bob.Address()); err != nil || got != 500 {
			t.Fatalf("node %d sees bob = %d, want 500", i, got)
		}
		if got, err := n.Balance(alice.Address()); err != nil || got != 10_000-5*102 {
			t.Fatalf("node %d sees alice = %d", i, got)
		}
	}
	// Confirmations grow with depth (trust-by-age, Section 2.2).
	n0 := c.Nodes[0]
	genesisConf := n0.Chain().Confirmations(c.Genesis.Hash())
	tipConf := n0.Chain().Confirmations(n0.Chain().Head())
	if genesisConf <= tipConf {
		t.Fatal("older blocks must have more confirmations")
	}
}

func TestPartitionForksThenHeals(t *testing.T) {
	c := powCluster(t, 6, 3, nil)
	c.Start()
	c.Sim.RunFor(2 * time.Minute)

	ids := c.Net.NodeIDs()
	c.Net.Partition(ids[:3], ids[3:])
	c.Sim.RunFor(5 * time.Minute)
	// The two sides have diverged.
	headA := c.Nodes[0].Chain().Head()
	if c.ConsistentPrefix() >= c.Nodes[0].Chain().Height()+1 {
		t.Log("partition did not force divergence (possible but unlikely); continuing")
	}

	c.Net.Heal()
	// Mining continues after heal; the longer branch wins everywhere.
	c.Sim.RunFor(5 * time.Minute)
	c.Stop()
	c.Sim.RunFor(time.Minute)
	h := c.Nodes[0].Chain().Height()
	if prefix := c.ConsistentPrefix(); prefix+2 < h {
		t.Fatalf("after heal prefix %d, height %d", prefix, h)
	}
	_ = headA
}

func TestPoSClusterNoForks(t *testing.T) {
	const seed = 5
	const n = 5
	stakes := make(map[cryptoutil.Address]uint64)
	for i := 0; i < n; i++ {
		stakes[ClusterKey(seed, i).Address()] = uint64(100 * (i + 1))
	}
	sim := simclock.NewSimulator()
	c, err := NewCluster(ClusterConfig{
		N:   n,
		Sim: sim,
		Engine: func(i int, key *cryptoutil.KeyPair) consensus.Engine {
			return pos.New(pos.Config{SlotInterval: 5 * time.Second, Stakes: stakes}, sim, key)
		},
		ForkChoice: func() consensus.ForkChoice { return forkchoice.LongestChain{} },
		Rewards:    incentive.Schedule{InitialReward: 10},
		Seed:       seed,
		Latency:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	c.Sim.RunFor(10 * time.Minute)
	c.Stop()
	c.Sim.RunFor(time.Minute)

	h := c.Nodes[0].Chain().Height()
	if h < 20 {
		t.Fatalf("PoS cluster produced only %d blocks", h)
	}
	// One proposer per slot ⇒ no competing branches at all.
	if rate := c.ForkRate(); rate != 0 {
		t.Fatalf("PoS fork rate = %.3f, want 0", rate)
	}
	if prefix := c.ConsistentPrefix(); prefix+2 < h {
		t.Fatalf("prefix %d behind height %d", prefix, h)
	}
	// Stake weighting: the top-staked validator proposes the most.
	counts := make(map[cryptoutil.Address]int)
	for height := uint64(1); height <= h; height++ {
		bh, _ := c.Nodes[0].Chain().AtHeight(height)
		b, _ := c.Nodes[0].Tree().Get(bh)
		counts[b.Header.Proposer]++
	}
	whale := ClusterKey(seed, n-1).Address() // stake 500
	minnow := ClusterKey(seed, 0).Address()  // stake 100
	if counts[whale] <= counts[minnow] {
		t.Fatalf("stake weighting violated: whale=%d minnow=%d", counts[whale], counts[minnow])
	}
}

func TestRejectsBadBlocks(t *testing.T) {
	c := powCluster(t, 1, 9, nil)
	n := c.Nodes[0]
	parent := c.Genesis

	build := func() *types.Block {
		cb := types.NewCoinbase(n.Address(), 50, 1)
		b := types.NewBlock(parent.Hash(), 1, int64(10*time.Second), n.Address(), []*types.Transaction{cb})
		st, _ := n.StateAt(parent.Hash())
		cp := st.Copy()
		if _, err := cp.ApplyBlock(b, 50); err != nil {
			t.Fatalf("ApplyBlock: %v", err)
		}
		b.Header.StateRoot = cp.Commit()
		if err := n.cfg.Engine.Prepare(&b.Header, parent); err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		if err := n.cfg.Engine.Seal(b, parent); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		return b
	}

	t.Run("valid block accepted", func(t *testing.T) {
		if err := n.HandleBlock(build()); err != nil {
			t.Fatalf("HandleBlock: %v", err)
		}
	})
	t.Run("duplicate rejected", func(t *testing.T) {
		b := build()
		_ = n.HandleBlock(b)
		if err := n.HandleBlock(b); !errors.Is(err, ErrKnownBlock) {
			t.Fatalf("want ErrKnownBlock, got %v", err)
		}
	})
	t.Run("bad tx root", func(t *testing.T) {
		b := build()
		b.Header.TxRoot[0] ^= 1
		// Re-seal so only the tx root is wrong.
		if err := n.cfg.Engine.Seal(b, parent); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		if err := n.HandleBlock(b); !errors.Is(err, ErrBadTxRoot) {
			t.Fatalf("want ErrBadTxRoot, got %v", err)
		}
	})
	t.Run("bad state root", func(t *testing.T) {
		b := build()
		b.Header.StateRoot[0] ^= 1
		if err := n.cfg.Engine.Seal(b, parent); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		if err := n.HandleBlock(b); !errors.Is(err, ErrBadStateRoot) {
			t.Fatalf("want ErrBadStateRoot, got %v", err)
		}
	})
	t.Run("bad seal", func(t *testing.T) {
		b := build()
		b.Header.Nonce = 0
		if !pow.CheckHeader(&b.Header) {
			if err := n.HandleBlock(b); !errors.Is(err, consensus.ErrInvalidSeal) {
				t.Fatalf("want ErrInvalidSeal, got %v", err)
			}
		}
	})
	t.Run("inflated coinbase", func(t *testing.T) {
		cb := types.NewCoinbase(n.Address(), 1_000_000, 1)
		b := types.NewBlock(parent.Hash(), 1, int64(10*time.Second), n.Address(), []*types.Transaction{cb})
		st, _ := n.StateAt(parent.Hash())
		b.Header.StateRoot = st.Commit()
		if err := n.cfg.Engine.Prepare(&b.Header, parent); err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		if err := n.cfg.Engine.Seal(b, parent); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		if err := n.HandleBlock(b); err == nil {
			t.Fatal("inflated coinbase must be rejected")
		}
	})
}

func TestOrphanBuffering(t *testing.T) {
	// Build a 2-block chain at one node, deliver child-first at another.
	src := powCluster(t, 1, 11, nil)
	src.Start()
	src.Sim.RunFor(2 * time.Minute)
	src.Stop()
	h := src.Nodes[0].Chain().Height()
	if h < 2 {
		t.Fatalf("source chain too short: %d", h)
	}
	b1h, _ := src.Nodes[0].Chain().AtHeight(1)
	b2h, _ := src.Nodes[0].Chain().AtHeight(2)
	b1, _ := src.Nodes[0].Tree().Get(b1h)
	b2, _ := src.Nodes[0].Tree().Get(b2h)

	dst := powCluster(t, 1, 11, nil) // same seed → same genesis & keys
	n := dst.Nodes[0]
	if err := n.HandleBlock(b2); err != nil {
		t.Fatalf("orphan delivery should buffer, got %v", err)
	}
	if n.Chain().Height() != 0 {
		t.Fatal("orphan must not extend the chain")
	}
	if err := n.HandleBlock(b1); err != nil {
		t.Fatalf("parent delivery: %v", err)
	}
	if n.Chain().Height() != 2 {
		t.Fatalf("after parent arrives height = %d, want 2", n.Chain().Height())
	}
	if n.Metrics().OrphansBuffered != 1 {
		t.Fatalf("orphan metric = %d", n.Metrics().OrphansBuffered)
	}
}

func TestNewValidation(t *testing.T) {
	key := cryptoutil.KeyFromSeed([]byte("k"))
	eng := pow.New(pow.Config{}, rand.New(rand.NewSource(1)))
	if _, err := New(Config{Key: key, Engine: eng, ForkChoice: forkchoice.LongestChain{}}); err == nil {
		t.Fatal("nil genesis must be rejected")
	}
	if _, err := New(Config{Genesis: NewGenesis("x"), Engine: eng, ForkChoice: forkchoice.LongestChain{}}); err == nil {
		t.Fatal("nil key must be rejected")
	}
	if _, err := New(Config{Genesis: NewGenesis("x"), Key: key}); err == nil {
		t.Fatal("missing engine must be rejected")
	}
}

func TestPoETCluster(t *testing.T) {
	enclave := poet.NewEnclave([]byte("cluster-enclave"))
	c, err := NewCluster(ClusterConfig{
		N: 5,
		Engine: func(i int, key *cryptoutil.KeyPair) consensus.Engine {
			return poet.New(poet.Config{MeanWait: 30 * time.Second}, enclave)
		},
		ForkChoice: func() consensus.ForkChoice { return forkchoice.LongestChain{} },
		Rewards:    incentive.Schedule{InitialReward: 10},
		Seed:       13,
		Latency:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	c.Sim.RunFor(10 * time.Minute)
	c.Stop()
	c.Sim.RunFor(time.Minute)
	h := c.Nodes[0].Chain().Height()
	if h < 10 {
		t.Fatalf("PoET cluster produced only %d blocks", h)
	}
	if prefix := c.ConsistentPrefix(); prefix+2 < h {
		t.Fatalf("PoET prefix %d behind height %d", prefix, h)
	}
}
