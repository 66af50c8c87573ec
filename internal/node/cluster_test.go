package node

import (
	"testing"
	"time"

	"dcsledger/internal/types"
)

// buildChild mines one block on parent via node n's engine and connects
// it to n (the builder needs the parent state materialized, so feed
// blocks in order).
func buildChild(t *testing.T, n *Node, parent *types.Block, ts time.Duration) *types.Block {
	t.Helper()
	height := parent.Header.Height + 1
	cb := types.NewCoinbase(n.Address(), 50, height)
	b := types.NewBlock(parent.Hash(), height, int64(ts), n.Address(), []*types.Transaction{cb})
	st, ok := n.StateAt(parent.Hash())
	if !ok {
		t.Fatalf("builder has no state for parent %s", parent.Hash().Short())
	}
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
	if err := n.HandleBlock(b); err != nil {
		t.Fatalf("HandleBlock at builder: %v", err)
	}
	return b
}

// TestConsistentPrefixAndForkRateKnownTopologies feeds hand-built fork
// topologies to a non-mining cluster and checks the agreement metrics
// against exact known answers. The block graph:
//
//	genesis ── b1 ── b2 ── b3   (main chain)
//	             └── a2         (stale sibling of b2)
func TestConsistentPrefixAndForkRateKnownTopologies(t *testing.T) {
	tests := []struct {
		name string
		// feed[i] lists which blocks peer i receives, in order.
		feed       [3][]string
		wantPrefix uint64
		subset     []int
		wantSubset uint64
		// fork rate observed at peer 0
		wantFork float64
	}{
		{
			name:       "all converged",
			feed:       [3][]string{{"b1", "b2", "b3"}, {"b1", "b2", "b3"}, {"b1", "b2", "b3"}},
			wantPrefix: 4,
			subset:     []int{0, 1, 2},
			wantSubset: 4,
			wantFork:   0,
		},
		{
			name:       "one peer lags",
			feed:       [3][]string{{"b1", "b2", "b3"}, {"b1", "b2"}, {"b1", "b2", "b3"}},
			wantPrefix: 3,
			subset:     []int{0, 2},
			wantSubset: 4,
			wantFork:   0,
		},
		{
			name:       "partition divergence",
			feed:       [3][]string{{"b1", "b2", "b3"}, {"b1", "b2", "b3"}, {"b1", "a2"}},
			wantPrefix: 2,
			subset:     []int{0, 1},
			wantSubset: 4,
			wantFork:   0,
		},
		{
			name:       "stale sibling at peer 0",
			feed:       [3][]string{{"b1", "b2", "b3", "a2"}, {"b1", "b2", "b3"}, {"b1", "b2", "b3"}},
			wantPrefix: 4, // a2 is off-chain at peer 0; main chains agree
			subset:     []int{0},
			wantSubset: 4,
			wantFork:   0.25, // 1 stale of 4 accepted non-genesis blocks
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := powCluster(t, 3, 77, nil)
			// Never started: no mining, no gossip — block delivery is
			// exactly the feed lists.
			builder := powCluster(t, 1, 77, nil).Nodes[0]
			blocks := map[string]*types.Block{}
			blocks["b1"] = buildChild(t, builder, c.Genesis, 10*time.Second)
			blocks["b2"] = buildChild(t, builder, blocks["b1"], 20*time.Second)
			blocks["b3"] = buildChild(t, builder, blocks["b2"], 30*time.Second)
			blocks["a2"] = buildChild(t, builder, blocks["b1"], 21*time.Second)
			if blocks["a2"].Hash() == blocks["b2"].Hash() {
				t.Fatal("fork blocks must be distinct")
			}
			for i, names := range tt.feed {
				for _, name := range names {
					if err := c.Nodes[i].HandleBlock(blocks[name]); err != nil {
						t.Fatalf("peer %d HandleBlock(%s): %v", i, name, err)
					}
				}
			}
			if got := c.ConsistentPrefix(); got != tt.wantPrefix {
				t.Errorf("ConsistentPrefix = %d, want %d", got, tt.wantPrefix)
			}
			if got := c.ConsistentPrefixOf(tt.subset); got != tt.wantSubset {
				t.Errorf("ConsistentPrefixOf(%v) = %d, want %d", tt.subset, got, tt.wantSubset)
			}
			if got := c.ForkRate(); got != tt.wantFork {
				t.Errorf("ForkRate = %v, want %v", got, tt.wantFork)
			}
		})
	}
}

func TestConsistentPrefixOfEmptySubset(t *testing.T) {
	c := powCluster(t, 2, 78, nil)
	if got := c.ConsistentPrefixOf(nil); got != 0 {
		t.Fatalf("ConsistentPrefixOf(nil) = %d, want 0", got)
	}
}

// TestClusterLeaveRejoinCatchesUp: a peer that leaves a live PoW
// cluster and rejoins later must resync to the majority chain via block
// gossip plus the ancestor-fetch protocol.
func TestClusterLeaveRejoinCatchesUp(t *testing.T) {
	c := powCluster(t, 5, 81, nil)
	c.Start()
	c.Sim.RunFor(time.Minute)

	if err := c.Leave(4); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if err := c.Leave(4); err == nil {
		t.Fatal("double Leave must error")
	}
	awayHead := c.Nodes[4].Chain().Height()
	c.Sim.RunFor(2 * time.Minute)
	if got := c.Nodes[4].Chain().Height(); got != awayHead {
		t.Fatalf("departed peer grew its chain: %d → %d", awayHead, got)
	}

	if err := c.Rejoin(4); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if err := c.Rejoin(4); err == nil {
		t.Fatal("Rejoin of a present peer must error")
	}
	c.Sim.RunFor(2 * time.Minute)
	c.Stop()
	c.Sim.RunFor(time.Minute) // drain gossip and ancestor fetches

	head0 := c.Nodes[0].Chain().Head()
	if got := c.Nodes[4].Chain().Head(); got != head0 {
		t.Fatalf("rejoined peer head %s != majority head %s (heights %d vs %d)",
			got.Short(), head0.Short(),
			c.Nodes[4].Chain().Height(), c.Nodes[0].Chain().Height())
	}
	if prefix := c.ConsistentPrefix(); prefix == 0 {
		t.Fatal("cluster lost all agreement")
	}
}
