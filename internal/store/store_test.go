package store

import (
	"errors"
	"fmt"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
)

func genesis() *types.Block {
	return types.NewBlock(cryptoutil.ZeroHash, 0, 0, cryptoutil.ZeroAddress, nil)
}

// child makes a block on top of parent with a unique marker transaction.
func child(parent *types.Block, marker string) *types.Block {
	miner := cryptoutil.KeyFromSeed([]byte(marker)).Address()
	cb := types.NewCoinbase(miner, 50, parent.Header.Height+1)
	cb.Data = []byte(marker)
	return types.NewBlock(parent.Hash(), parent.Header.Height+1, int64(parent.Header.Height+1), miner, []*types.Transaction{cb})
}

// findTx is FindTx on a chain whose bodies all read back.
func findTx(t testing.TB, c *Chain, txID cryptoutil.Hash) (cryptoutil.Hash, int, bool) {
	t.Helper()
	bh, idx, ok, err := c.FindTx(txID)
	if err != nil {
		t.Fatalf("FindTx: %v", err)
	}
	return bh, idx, ok
}

func TestBlockTreeAddGet(t *testing.T) {
	g := genesis()
	tree := NewBlockTree(g)
	b1 := child(g, "b1")
	if err := tree.Add(b1); err != nil {
		t.Fatalf("Add: %v", err)
	}
	got, ok := tree.Get(b1.Hash())
	if !ok || got.Hash() != b1.Hash() {
		t.Fatal("Get after Add failed")
	}
	if tree.Len() != 2 {
		t.Fatalf("Len = %d", tree.Len())
	}
}

func TestBlockTreeRejects(t *testing.T) {
	g := genesis()
	tree := NewBlockTree(g)
	b1 := child(g, "b1")
	if err := tree.Add(b1); err != nil {
		t.Fatalf("Add: %v", err)
	}
	t.Run("duplicate", func(t *testing.T) {
		if err := tree.Add(b1); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("want ErrDuplicate, got %v", err)
		}
	})
	t.Run("orphan", func(t *testing.T) {
		orphan := child(child(g, "unseen"), "orphan")
		if err := tree.Add(orphan); !errors.Is(err, ErrUnknownParent) {
			t.Fatalf("want ErrUnknownParent, got %v", err)
		}
	})
	t.Run("bad height", func(t *testing.T) {
		bad := child(g, "bad")
		bad.Header.Height = 7
		if err := tree.Add(bad); !errors.Is(err, ErrBadHeight) {
			t.Fatalf("want ErrBadHeight, got %v", err)
		}
	})
}

// buildFork creates:
//
//	g — a1 — a2 — a3
//	  \ b1 — b2
func buildFork(t *testing.T) (*BlockTree, *types.Block, []*types.Block, []*types.Block) {
	t.Helper()
	g := genesis()
	tree := NewBlockTree(g)
	a1 := child(g, "a1")
	a2 := child(a1, "a2")
	a3 := child(a2, "a3")
	b1 := child(g, "b1")
	b2 := child(b1, "b2")
	for _, b := range []*types.Block{a1, a2, a3, b1, b2} {
		if err := tree.Add(b); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return tree, g, []*types.Block{a1, a2, a3}, []*types.Block{b1, b2}
}

func TestTipsAndChildren(t *testing.T) {
	tree, g, as, bs := buildFork(t)
	tips := tree.Tips()
	if len(tips) != 2 {
		t.Fatalf("tips = %d, want 2", len(tips))
	}
	want := map[cryptoutil.Hash]bool{as[2].Hash(): true, bs[1].Hash(): true}
	for _, tip := range tips {
		if !want[tip] {
			t.Fatalf("unexpected tip %s", tip.Short())
		}
	}
	if len(tree.Children(g.Hash())) != 2 {
		t.Fatal("genesis should have two children")
	}
}

func TestPathFromGenesis(t *testing.T) {
	tree, g, as, _ := buildFork(t)
	path, err := tree.PathFromGenesis(as[2].Hash())
	if err != nil {
		t.Fatalf("PathFromGenesis: %v", err)
	}
	if len(path) != 4 || path[0] != g.Hash() || path[3] != as[2].Hash() {
		t.Fatalf("path = %v", path)
	}
}

func TestSubtreeSize(t *testing.T) {
	tree, g, as, bs := buildFork(t)
	tests := []struct {
		name string
		h    cryptoutil.Hash
		want int
	}{
		{name: "genesis", h: g.Hash(), want: 6},
		{name: "a1", h: as[0].Hash(), want: 3},
		{name: "b1", h: bs[0].Hash(), want: 2},
		{name: "a3 leaf", h: as[2].Hash(), want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tree.SubtreeSize(tt.h)
			if err != nil {
				t.Fatalf("SubtreeSize: %v", err)
			}
			if got != tt.want {
				t.Fatalf("SubtreeSize = %d, want %d", got, tt.want)
			}
		})
	}
	if _, err := tree.SubtreeSize(cryptoutil.HashBytes([]byte("nope"))); !errors.Is(err, ErrUnknownBlock) {
		t.Fatal("unknown block must error")
	}
}

func TestTotalDifficulty(t *testing.T) {
	g := genesis()
	tree := NewBlockTree(g)
	b1 := child(g, "b1")
	b1.Header.Difficulty = 10
	b2 := child(b1, "b2")
	b2.Header.Difficulty = 20
	if err := tree.Add(b1); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := tree.Add(b2); err != nil {
		t.Fatalf("Add: %v", err)
	}
	td, err := tree.TotalDifficulty(b2.Hash())
	if err != nil {
		t.Fatalf("TotalDifficulty: %v", err)
	}
	if td != 30 {
		t.Fatalf("TotalDifficulty = %d, want 30", td)
	}
}

func TestChainSetHeadAndReorg(t *testing.T) {
	tree, _, as, bs := buildFork(t)
	c := NewChain(tree)
	removed, added, err := c.SetHead(as[2].Hash())
	if err != nil {
		t.Fatalf("SetHead: %v", err)
	}
	if len(removed) != 0 || len(added) != 3 {
		t.Fatalf("removed/added = %d/%d", len(removed), len(added))
	}
	if c.Height() != 3 || c.Head() != as[2].Hash() {
		t.Fatalf("height %d head %s", c.Height(), c.Head().Short())
	}

	// Reorg to the b branch.
	removed, added, err = c.SetHead(bs[1].Hash())
	if err != nil {
		t.Fatalf("SetHead reorg: %v", err)
	}
	if len(removed) != 3 || len(added) != 2 {
		t.Fatalf("reorg removed/added = %d/%d", len(removed), len(added))
	}
	if c.Contains(as[0].Hash()) {
		t.Fatal("a-branch must leave the main chain")
	}
	if !c.Contains(bs[0].Hash()) || !c.Contains(bs[1].Hash()) {
		t.Fatal("b-branch must be on the main chain")
	}
}

func TestChainConfirmationsAndLookup(t *testing.T) {
	tree, g, as, _ := buildFork(t)
	c := NewChain(tree)
	if _, _, err := c.SetHead(as[2].Hash()); err != nil {
		t.Fatalf("SetHead: %v", err)
	}
	if got := c.Confirmations(as[2].Hash()); got != 1 {
		t.Fatalf("tip confirmations = %d, want 1", got)
	}
	if got := c.Confirmations(g.Hash()); got != 4 {
		t.Fatalf("genesis confirmations = %d, want 4", got)
	}
	// Off-chain block: zero confirmations.
	offChain := child(g, "b1")
	if got := c.Confirmations(offChain.Hash()); got != 0 {
		t.Fatalf("fork block confirmations = %d, want 0", got)
	}

	// Transaction lookup.
	txID := as[1].Txs[0].ID()
	bh, idx, ok := findTx(t, c, txID)
	if !ok || bh != as[1].Hash() || idx != 0 {
		t.Fatalf("FindTx = %s %d %v", bh.Short(), idx, ok)
	}
	// After reorg away, the tx disappears from the index.
	b1 := child(g, "b1")
	if _, _, err := c.SetHead(b1.Hash()); err != nil {
		t.Fatalf("SetHead: %v", err)
	}
	if _, _, ok := findTx(t, c, txID); ok {
		t.Fatal("tx from reorged-out block must vanish from index")
	}
}

func TestChainAtHeightAndHeaders(t *testing.T) {
	tree, g, as, _ := buildFork(t)
	c := NewChain(tree)
	if _, _, err := c.SetHead(as[2].Hash()); err != nil {
		t.Fatalf("SetHead: %v", err)
	}
	h0, ok := c.AtHeight(0)
	if !ok || h0 != g.Hash() {
		t.Fatal("AtHeight(0) should be genesis")
	}
	if _, ok := c.AtHeight(99); ok {
		t.Fatal("AtHeight past tip should miss")
	}
	hs := c.Headers(1, 2)
	if len(hs) != 2 || hs[0].Height != 1 || hs[1].Height != 2 {
		t.Fatalf("Headers = %+v", hs)
	}
	if got := c.Headers(10, 5); len(got) != 0 {
		t.Fatal("Headers past tip should be empty")
	}
}

func TestOffChainStore(t *testing.T) {
	s := NewOffChainStore()
	blob := []byte("medical record, kept off-chain for privacy")
	anchor := s.Put(blob)

	got, err := s.Get(anchor)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != string(blob) {
		t.Fatal("blob mismatch")
	}

	t.Run("missing", func(t *testing.T) {
		s.Drop(anchor)
		if _, err := s.Get(anchor); !errors.Is(err, ErrBlobMissing) {
			t.Fatalf("want ErrBlobMissing, got %v", err)
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		anchor2 := s.Put(blob)
		s.Corrupt(anchor2, []byte("tampered"))
		if _, err := s.Get(anchor2); !errors.Is(err, ErrBlobCorrupted) {
			t.Fatalf("want ErrBlobCorrupted, got %v", err)
		}
	})
}

func TestOffChainStoreSize(t *testing.T) {
	s := NewOffChainStore()
	for i := 0; i < 5; i++ {
		s.Put([]byte(fmt.Sprintf("blob-%d-%s", i, string(make([]byte, 100)))))
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Size() < 500 {
		t.Fatalf("Size = %d", s.Size())
	}
}

// TestChildrenReturnsCopy pins the aliasing contract of the child
// accessor: the returned slice is the caller's to mutate, and writing
// through it must never corrupt the tree's child index.
func TestChildrenReturnsCopy(t *testing.T) {
	tree, g, as, bs := buildFork(t)
	kids := tree.Children(g.Hash())
	if len(kids) != 2 {
		t.Fatalf("genesis children = %d, want 2", len(kids))
	}
	kids[0], kids[1] = cryptoutil.ZeroHash, cryptoutil.ZeroHash

	again := tree.Children(g.Hash())
	want := map[cryptoutil.Hash]bool{as[0].Hash(): true, bs[0].Hash(): true}
	for _, k := range again {
		if !want[k] {
			t.Fatalf("child index corrupted through returned slice: got %s", k.Short())
		}
	}
	// The structural walks that depend on the index still work.
	if _, err := tree.PathFromGenesis(as[2].Hash()); err != nil {
		t.Fatalf("PathFromGenesis after caller mutation: %v", err)
	}
}
