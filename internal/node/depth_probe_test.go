package node

import (
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/state"
)

// readDepth is how many layers a read of st that misses them all visits.
func readDepth(st *state.State) int {
	_, d := st.Under()
	return d
}

// TestHeadReadsOneTrie: a read of the head state is answered by the head
// layer's own writes or by its trie — the block being executed on top of
// it adds one layer — and a read of any retained state walks a bounded
// number of layers to a trie, whatever the length of the chain. Nothing
// under a state is a flat copy of the accounts.
func TestHeadReadsOneTrie(t *testing.T) {
	const W = 8
	n, genesis := lifecycleNode(t, W)
	bd := newChainBuilder(t, genesis)
	miner := cryptoutil.KeyFromSeed([]byte("depth-probe")).Address()
	for _, b := range bd.chain(genesis, 200, miner) {
		if err := n.HandleBlock(b); err != nil {
			t.Fatalf("HandleBlock h=%d: %v", b.Header.Height, err)
		}
		head := n.State()
		if d := readDepth(head); d != 1 {
			t.Fatalf("a head read visits %d layers at height %d, want 1 (then one trie)", d, b.Header.Height)
		}
		if d := readDepth(head.Copy()); d != 2 {
			t.Fatalf("a read of a block layer over the head visits %d layers, want 2", d)
		}
		n.mu.Lock()
		for h, st := range n.states {
			// A state whose trie was released reads through the layers down
			// to the state last detached under it: at most W/2 of them.
			if d := readDepth(st); d > W/2+1 {
				n.mu.Unlock()
				t.Fatalf("a read of retained state %s visits %d layers, retention window is %d", h.Short(), d, W)
			}
		}
		n.mu.Unlock()
	}
	if got, want := n.State().Commit(), bd.states[n.Chain().Head()].Commit(); got != want {
		t.Fatalf("head root %s, builder's %s", got.Short(), want.Short())
	}
}
