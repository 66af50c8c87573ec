package forkchoice

import (
	"slices"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/store"
	"dcsledger/internal/types"
)

func mkBlock(parent *types.Block, marker string, difficulty uint64) *types.Block {
	miner := cryptoutil.KeyFromSeed([]byte(marker)).Address()
	cb := types.NewCoinbase(miner, 50, parent.Header.Height+1)
	cb.Data = []byte(marker)
	b := types.NewBlock(parent.Hash(), parent.Header.Height+1, int64(parent.Header.Height+1), miner, []*types.Transaction{cb})
	b.Header.Difficulty = difficulty
	return b
}

func mustAdd(t *testing.T, tree *store.BlockTree, blocks ...*types.Block) {
	t.Helper()
	for _, b := range blocks {
		if err := tree.Add(b); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
}

func TestGenesisOnly(t *testing.T) {
	g := types.NewBlock(cryptoutil.ZeroHash, 0, 0, cryptoutil.ZeroAddress, nil)
	tree := store.NewBlockTree(g)
	for _, fc := range []interface {
		Choose(*store.BlockTree) (cryptoutil.Hash, error)
	}{LongestChain{}, GHOST{}} {
		tip, err := fc.Choose(tree)
		if err != nil {
			t.Fatalf("Choose: %v", err)
		}
		if tip != g.Hash() {
			t.Fatal("genesis-only tree must choose genesis")
		}
	}
}

// buildGHOSTCounterexample builds the classic tree where GHOST and
// longest-chain disagree:
//
//	        ┌─ a1 ─ a2 ─ a3          (long, lonely chain)
//	g ──────┤
//	        └─ b1 ┬ b2
//	              ├ c2
//	              └ d2               (short but heavily attested subtree)
//
// Longest chain prefers a3 (height 3); GHOST prefers the b-subtree
// (4 blocks vs 3) and lands on its deepest member.
func buildGHOSTCounterexample(t *testing.T) (*store.BlockTree, cryptoutil.Hash, cryptoutil.Hash) {
	t.Helper()
	g := types.NewBlock(cryptoutil.ZeroHash, 0, 0, cryptoutil.ZeroAddress, nil)
	tree := store.NewBlockTree(g)
	a1 := mkBlock(g, "a1", 1)
	a2 := mkBlock(a1, "a2", 1)
	a3 := mkBlock(a2, "a3", 1)
	b1 := mkBlock(g, "b1", 1)
	b2 := mkBlock(b1, "b2", 1)
	c2 := mkBlock(b1, "c2", 1)
	d2 := mkBlock(b1, "d2", 1)
	mustAdd(t, tree, a1, a2, a3, b1, b2, c2, d2)
	return tree, a3.Hash(), b1.Hash()
}

func TestLongestChainPrefersHeight(t *testing.T) {
	tree, a3, _ := buildGHOSTCounterexample(t)
	tip, err := LongestChain{}.Choose(tree)
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if tip != a3 {
		t.Fatalf("longest chain chose %s, want a3", tip.Short())
	}
}

func TestGHOSTPrefersHeavySubtree(t *testing.T) {
	tree, a3, b1 := buildGHOSTCounterexample(t)
	tip, err := GHOST{}.Choose(tree)
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if tip == a3 {
		t.Fatal("GHOST must not choose the lonely long chain")
	}
	if path, err := tree.PathFromGenesis(tip); err != nil || !slices.Contains(path, b1) {
		t.Fatalf("GHOST tip %s should descend from b1", tip.Short())
	}
}

func TestLongestChainUsesDifficulty(t *testing.T) {
	// A shorter branch with more total difficulty must win.
	g := types.NewBlock(cryptoutil.ZeroHash, 0, 0, cryptoutil.ZeroAddress, nil)
	tree := store.NewBlockTree(g)
	a1 := mkBlock(g, "a1", 1)
	a2 := mkBlock(a1, "a2", 1)
	heavy := mkBlock(g, "heavy", 10)
	mustAdd(t, tree, a1, a2, heavy)
	tip, err := LongestChain{}.Choose(tree)
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if tip != heavy.Hash() {
		t.Fatalf("difficulty-weighted choice = %s, want heavy", tip.Short())
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Two equal branches: both rules must pick the same tip on every
	// call (consistency requires all peers agree).
	g := types.NewBlock(cryptoutil.ZeroHash, 0, 0, cryptoutil.ZeroAddress, nil)
	tree := store.NewBlockTree(g)
	x := mkBlock(g, "x", 1)
	y := mkBlock(g, "y", 1)
	mustAdd(t, tree, x, y)
	for _, fc := range []interface {
		Name() string
		Choose(*store.BlockTree) (cryptoutil.Hash, error)
	}{LongestChain{}, GHOST{}} {
		first, err := fc.Choose(tree)
		if err != nil {
			t.Fatalf("%s: %v", fc.Name(), err)
		}
		for i := 0; i < 5; i++ {
			again, err := fc.Choose(tree)
			if err != nil || again != first {
				t.Fatalf("%s: tie break unstable", fc.Name())
			}
		}
	}
}

func TestAgreementOnLinearChain(t *testing.T) {
	// With no forks the two rules agree.
	g := types.NewBlock(cryptoutil.ZeroHash, 0, 0, cryptoutil.ZeroAddress, nil)
	tree := store.NewBlockTree(g)
	parent := g
	for i := 0; i < 10; i++ {
		b := mkBlock(parent, string(rune('a'+i)), 1)
		mustAdd(t, tree, b)
		parent = b
	}
	l, err := LongestChain{}.Choose(tree)
	if err != nil {
		t.Fatalf("longest: %v", err)
	}
	gh, err := GHOST{}.Choose(tree)
	if err != nil {
		t.Fatalf("ghost: %v", err)
	}
	if l != gh || l != parent.Hash() {
		t.Fatal("rules must agree on a linear chain")
	}
}

func TestNames(t *testing.T) {
	if (LongestChain{}).Name() != "longest" || (GHOST{}).Name() != "ghost" {
		t.Fatal("names changed")
	}
}
