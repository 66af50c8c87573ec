package node

import (
	"math/rand"
	"testing"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/consensus/forkchoice"
	"dcsledger/internal/consensus/pow"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/incentive"
	"dcsledger/internal/types"
	"dcsledger/internal/wallet"
)

func powEngineFactory(seed int64, interval time.Duration, hashRate float64) func(int, *cryptoutil.KeyPair) consensus.Engine {
	return func(i int, key *cryptoutil.KeyPair) consensus.Engine {
		return pow.New(pow.Config{
			TargetInterval:    interval,
			InitialDifficulty: 256,
			HashRate:          hashRate,
		}, rand.New(rand.NewSource(seed+int64(i)+500)))
	}
}

func longestFactory() func() consensus.ForkChoice {
	return func() consensus.ForkChoice { return forkchoice.LongestChain{} }
}

func testRewards() incentive.Schedule { return incentive.Schedule{InitialReward: 50} }

// TestClusterConvergesUnderMessageLoss injects 15% message loss: the
// gossip redundancy plus the ancestor-fetch protocol must still bring
// every peer to the same chain.
func TestClusterConvergesUnderMessageLoss(t *testing.T) {
	c := lossyCluster(t, 8, 21, 0.15)
	c.Start()
	c.Sim.RunFor(8 * time.Minute)
	c.Stop()
	c.Sim.RunFor(2 * time.Minute)
	h := c.Nodes[0].Chain().Height()
	if h < 10 {
		t.Fatalf("lossy cluster mined only %d blocks", h)
	}
	if prefix := c.ConsistentPrefix(); prefix+3 < h {
		t.Fatalf("prefix %d too far behind height %d under loss", prefix, h)
	}
}

func lossyCluster(t *testing.T, n int, seed int64, drop float64) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		N:          n,
		Engine:     powEngineFactory(seed, 10*time.Second, 25.6),
		ForkChoice: longestFactory(),
		Rewards:    testRewards(),
		Seed:       seed,
		DropRate:   drop,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

// TestByzantinePeerCannotCorruptHonestNodes injects a stream of invalid
// blocks (bad coinbase, bad state root, bad seal) directly into an
// honest node: every one must be rejected and the honest chain keeps
// growing.
func TestByzantinePeerCannotCorruptHonestNodes(t *testing.T) {
	c := powCluster(t, 3, 23, nil)
	c.Start()
	c.Sim.RunFor(time.Minute)

	honest := c.Nodes[0]
	parent := honest.Chain().HeadBlock()
	evil := cryptoutil.KeyFromSeed([]byte("evil"))

	// Inflated coinbase, properly sealed.
	forged := types.NewBlock(parent.Hash(), parent.Header.Height+1,
		c.Sim.Now().UnixNano(), evil.Address(),
		[]*types.Transaction{types.NewCoinbase(evil.Address(), 1_000_000_000, parent.Header.Height+1)})
	if err := honest.cfg.Engine.Prepare(&forged.Header, parent); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if err := honest.cfg.Engine.Seal(forged, parent); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if err := honest.HandleBlock(forged); err == nil {
		t.Fatal("inflated coinbase accepted")
	}

	// Unsealed block (no proof of work).
	unsealed := types.NewBlock(parent.Hash(), parent.Header.Height+1,
		c.Sim.Now().UnixNano(), evil.Address(),
		[]*types.Transaction{types.NewCoinbase(evil.Address(), 50, parent.Header.Height+1)})
	unsealed.Header.Difficulty = parent.Header.Difficulty
	if err := honest.HandleBlock(unsealed); err == nil {
		t.Fatal("unsealed block accepted")
	}

	rejected := honest.Metrics().BlocksRejected
	if rejected < 1 {
		t.Fatalf("rejected metric = %d", rejected)
	}

	// The honest network keeps making progress afterwards.
	before := honest.Chain().Height()
	c.Sim.RunFor(2 * time.Minute)
	c.Stop()
	if honest.Chain().Height() <= before {
		t.Fatal("honest chain stalled after attack")
	}
	// And the attacker minted nothing.
	if got, err := honest.Balance(evil.Address()); err != nil || got != 0 {
		t.Fatal("attacker gained balance")
	}
}

// TestFeeMarketUnderTinyBlocks caps blocks at 2 user transactions and
// offers 6 with distinct fees: the highest-fee transactions commit
// first (the §2.4 fee incentive).
func TestFeeMarketUnderTinyBlocks(t *testing.T) {
	// Six independent senders so nonce ordering cannot interfere.
	alloc := make(map[cryptoutil.Address]uint64)
	senders := make([]*wallet.Wallet, 6)
	for i := range senders {
		senders[i] = wallet.FromSeed(string(rune('a'+i)) + "/fee-market")
		alloc[senders[i].Address()] = 1000
	}
	c, err := NewCluster(ClusterConfig{
		N:           1,
		Engine:      powEngineFactory(29, 10*time.Second, 25.6),
		ForkChoice:  longestFactory(),
		Alloc:       alloc,
		Rewards:     testRewards(),
		Seed:        29,
		MaxBlockTxs: 2,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	dest := wallet.FromSeed("sink").Address()
	fees := []uint64{5, 30, 10, 60, 1, 20}
	for i, w := range senders {
		tx, err := w.Transfer(dest, 1, fees[i])
		if err != nil {
			t.Fatalf("Transfer: %v", err)
		}
		if err := c.Nodes[0].SubmitTx(tx); err != nil {
			t.Fatalf("SubmitTx: %v", err)
		}
	}
	c.Start()
	c.Sim.RunFor(90 * time.Second) // mine a handful of blocks
	c.Stop()

	n := c.Nodes[0]
	var order []uint64
	for h := uint64(1); h <= n.Chain().Height(); h++ {
		bh, _ := n.Chain().AtHeight(h)
		b, _ := n.Tree().Get(bh)
		for _, tx := range b.Txs[1:] {
			order = append(order, tx.Fee)
		}
	}
	if len(order) < 4 {
		t.Fatalf("too few committed txs: %v", order)
	}
	// Fees must be (block-wise) non-increasing: the first block carries
	// the two richest fees, and so on.
	for i := 1; i < len(order); i++ {
		if order[i] > order[i-1] && i%2 != 0 {
			// Within a block the pair order is by fee too.
			t.Fatalf("fee priority violated: %v", order)
		}
	}
	if order[0] != 60 || order[1] != 30 {
		t.Fatalf("richest fees not first: %v", order)
	}
}
