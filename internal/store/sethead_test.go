package store

import (
	"testing"

	"dcsledger/internal/types"
)

// deepFork builds a fork below an interior block (not genesis):
//
//	g — a1 — a2 — a3 — a4
//	           \ c3 — c4
func deepFork(t *testing.T) (tree *BlockTree, g *types.Block, as, cs []*types.Block) {
	t.Helper()
	g = genesis()
	tree = NewBlockTree(g)
	a1 := child(g, "a1")
	a2 := child(a1, "a2")
	a3 := child(a2, "a3")
	a4 := child(a3, "a4")
	c3 := child(a2, "c3")
	c4 := child(c3, "c4")
	for _, b := range []*types.Block{a1, a2, a3, a4, c3, c4} {
		if err := tree.Add(b); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return tree, g, []*types.Block{a1, a2, a3, a4}, []*types.Block{c3, c4}
}

// TestSetHeadNoOp repoints the chain at its current head: nothing may
// move.
func TestSetHeadNoOp(t *testing.T) {
	tree, _, as, _ := deepFork(t)
	c := NewChain(tree)
	if _, _, err := c.SetHead(as[3].Hash()); err != nil {
		t.Fatalf("SetHead: %v", err)
	}
	removed, added, err := c.SetHead(as[3].Hash())
	if err != nil {
		t.Fatalf("no-op SetHead: %v", err)
	}
	if len(removed) != 0 || len(added) != 0 {
		t.Fatalf("no-op moved blocks: removed %d added %d", len(removed), len(added))
	}
	if c.Head() != as[3].Hash() || c.Height() != 4 {
		t.Fatalf("no-op changed head to %s@%d", c.Head().Short(), c.Height())
	}
}

// TestSetHeadToAncestor rolls the head back down its own branch: pure
// removal, nothing added.
func TestSetHeadToAncestor(t *testing.T) {
	tree, _, as, _ := deepFork(t)
	c := NewChain(tree)
	if _, _, err := c.SetHead(as[3].Hash()); err != nil {
		t.Fatalf("SetHead: %v", err)
	}
	removed, added, err := c.SetHead(as[1].Hash()) // a4, a3 leave
	if err != nil {
		t.Fatalf("rollback SetHead: %v", err)
	}
	if len(added) != 0 {
		t.Fatalf("rollback added %d blocks", len(added))
	}
	if len(removed) != 2 || removed[0] != as[2].Hash() || removed[1] != as[3].Hash() {
		t.Fatalf("rollback removed wrong blocks: %v", removed)
	}
	if c.Height() != 2 || c.Head() != as[1].Hash() {
		t.Fatalf("head after rollback %s@%d", c.Head().Short(), c.Height())
	}
	// The rolled-off blocks' txs leave the index; the survivors' stay.
	if _, _, ok := findTx(t, c, as[3].Txs[0].ID()); ok {
		t.Fatal("rolled-off tx still indexed")
	}
	if _, _, ok := findTx(t, c, as[1].Txs[0].ID()); !ok {
		t.Fatal("surviving tx lost from index")
	}
	// Confirmations reflect the shorter chain.
	if got := c.Confirmations(as[1].Hash()); got != 1 {
		t.Fatalf("new tip confirmations = %d, want 1", got)
	}
	if got := c.Confirmations(as[3].Hash()); got != 0 {
		t.Fatalf("rolled-off block confirmations = %d, want 0", got)
	}
}

// TestSetHeadMidChainReorg switches between branches that diverge at an
// interior block: the common prefix (g, a1, a2) must not appear in
// either removed or added.
func TestSetHeadMidChainReorg(t *testing.T) {
	tree, g, as, cs := deepFork(t)
	c := NewChain(tree)
	if _, _, err := c.SetHead(as[3].Hash()); err != nil {
		t.Fatalf("SetHead: %v", err)
	}
	removed, added, err := c.SetHead(cs[1].Hash())
	if err != nil {
		t.Fatalf("reorg SetHead: %v", err)
	}
	if len(removed) != 2 || removed[0] != as[2].Hash() || removed[1] != as[3].Hash() {
		t.Fatalf("removed = %v, want [a3 a4]", removed)
	}
	if len(added) != 2 || added[0] != cs[0].Hash() || added[1] != cs[1].Hash() {
		t.Fatalf("added = %v, want [c3 c4]", added)
	}
	// Common prefix stays on-chain throughout.
	for _, b := range []*types.Block{g, as[0], as[1]} {
		if !c.Contains(b.Hash()) {
			t.Fatalf("common-prefix block h=%d left the chain", b.Header.Height)
		}
	}
	// Equal-height switch: a3 and c3 sit at the same height; only c3 is
	// canonical now.
	if c.Contains(as[2].Hash()) {
		t.Fatal("a3 still canonical after reorg")
	}
	if h, ok := c.AtHeight(3); !ok || h != cs[0].Hash() {
		t.Fatalf("AtHeight(3) = %s, want c3", h.Short())
	}
}

// TestSetHeadReorgRoundTrip reorgs away and back, asserting the tx
// index and confirmations are fully restored — the invariant crash
// recovery leans on when it replays head switches.
func TestSetHeadReorgRoundTrip(t *testing.T) {
	tree, _, as, cs := deepFork(t)
	c := NewChain(tree)
	if _, _, err := c.SetHead(as[3].Hash()); err != nil {
		t.Fatalf("SetHead: %v", err)
	}
	txA3 := as[2].Txs[0].ID()
	if _, _, err := c.SetHead(cs[1].Hash()); err != nil {
		t.Fatalf("reorg: %v", err)
	}
	if _, _, ok := findTx(t, c, txA3); ok {
		t.Fatal("a3 tx indexed while on the c branch")
	}
	removed, added, err := c.SetHead(as[3].Hash())
	if err != nil {
		t.Fatalf("reorg back: %v", err)
	}
	if len(removed) != 2 || len(added) != 2 {
		t.Fatalf("round trip removed/added = %d/%d, want 2/2", len(removed), len(added))
	}
	bh, idx, ok := findTx(t, c, txA3)
	if !ok || bh != as[2].Hash() || idx != 0 {
		t.Fatalf("a3 tx not restored: %s %d %v", bh.Short(), idx, ok)
	}
	if got := c.Confirmations(as[2].Hash()); got != 2 {
		t.Fatalf("a3 confirmations after round trip = %d, want 2", got)
	}
	if c.Height() != 4 || c.Head() != as[3].Hash() {
		t.Fatalf("head after round trip %s@%d", c.Head().Short(), c.Height())
	}
}

// TestSetHeadUnknownBlock must fail without disturbing the chain.
func TestSetHeadUnknownBlock(t *testing.T) {
	tree, g, as, _ := deepFork(t)
	c := NewChain(tree)
	if _, _, err := c.SetHead(as[3].Hash()); err != nil {
		t.Fatalf("SetHead: %v", err)
	}
	stranger := child(child(g, "unseen"), "stranger") // never added to the tree
	if _, _, err := c.SetHead(stranger.Hash()); err == nil {
		t.Fatal("SetHead to unknown block succeeded")
	}
	if c.Head() != as[3].Hash() || c.Height() != 4 {
		t.Fatalf("failed SetHead disturbed the chain: %s@%d", c.Head().Short(), c.Height())
	}
	if _, _, ok := findTx(t, c, as[3].Txs[0].ID()); !ok {
		t.Fatal("failed SetHead disturbed the tx index")
	}
}

// TestSetHeadToGenesis rolls all the way back to the trust anchor.
func TestSetHeadToGenesis(t *testing.T) {
	tree, g, as, _ := deepFork(t)
	c := NewChain(tree)
	if _, _, err := c.SetHead(as[3].Hash()); err != nil {
		t.Fatalf("SetHead: %v", err)
	}
	removed, added, err := c.SetHead(g.Hash())
	if err != nil {
		t.Fatalf("SetHead(genesis): %v", err)
	}
	if len(removed) != 4 || len(added) != 0 {
		t.Fatalf("removed/added = %d/%d, want 4/0", len(removed), len(added))
	}
	if c.Height() != 0 || c.Head() != g.Hash() {
		t.Fatalf("head = %s@%d, want genesis@0", c.Head().Short(), c.Height())
	}
	if got := c.Confirmations(g.Hash()); got != 1 {
		t.Fatalf("genesis confirmations = %d, want 1", got)
	}
}
