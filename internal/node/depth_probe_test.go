package node

import (
	"testing"

	"dcsledger/internal/cryptoutil"
)

// TestHeadStateDepthBounded: the chain of diff layers under the head
// state (what an account lookup walks, and what keeps the layers of
// pruned states alive) is bounded by the retention window, not by the
// length of the chain.
func TestHeadStateDepthBounded(t *testing.T) {
	const W = 8
	n, genesis := lifecycleNode(t, W, 0)
	bd := newChainBuilder(t, genesis)
	miner := cryptoutil.KeyFromSeed([]byte("depth-probe")).Address()
	for _, b := range bd.chain(genesis, 200, miner) {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
		}
		if d := n.State().Depth(); d > W+W/2 {
			t.Fatalf("head state sits on %d layers at height %d, retention window is %d", d, b.Header.Height, W)
		}
	}
	if got, want := n.State().Commit(), bd.states[n.Chain().Head()].Commit(); got != want {
		t.Fatalf("head root %s, builder's %s", got.Short(), want.Short())
	}
}
