package store

import (
	"fmt"
	"math/rand"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
)

// childTxs makes a block of n distinct marker transactions on parent.
func childTxs(parent *types.Block, marker string, n int) *types.Block {
	height := parent.Header.Height + 1
	miner := cryptoutil.KeyFromSeed([]byte(marker)).Address()
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = types.NewCoinbase(miner, 50, height)
		txs[i].Data = []byte(fmt.Sprint(marker, "/", i))
	}
	return types.NewBlock(parent.Hash(), height, int64(height), miner, txs)
}

// TestIndexOnDemandEqualsIndexAlways drives three chains over one
// evicting tree through the same seeded sequence of extensions, forks
// and head switches at any depth. One is asked for a transaction before
// the sequence (its index is maintained by every SetHead, as every
// chain's was before the index became lazy), one at a random step in
// it, one only after it (its index is built in one pass, evicted bodies
// read back); a head switch made while the journal cannot be read costs
// a chain its index. All three must answer as a scan of the main chain's
// bodies does, for every transaction of every branch.
func TestIndexOnDemandEqualsIndexAlways(t *testing.T) {
	type loc struct {
		block cryptoutil.Hash
		index int
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := genesis()
			tree := NewBlockTree(g)
			journal := newMemJournal()
			tree.SetBodySource(journal)
			always, mid, late := NewChain(tree), NewChain(tree), NewChain(tree)
			blocks := []*types.Block{g}

			agree := func(step int, chains ...*Chain) {
				t.Helper()
				scan := make(map[cryptoutil.Hash]loc)
				for h := uint64(0); h <= always.Height(); h++ {
					bh, _ := always.AtHeight(h)
					b, err := tree.Block(bh)
					if err != nil {
						t.Fatalf("step %d: scan: %v", step, err)
					}
					for i, tx := range b.Txs {
						scan[tx.ID()] = loc{bh, i}
					}
				}
				for _, b := range blocks {
					for _, tx := range b.Txs {
						want, onMain := scan[tx.ID()]
						for i, c := range chains {
							bh, idx, ok := findTx(t, c, tx.ID())
							if ok != onMain || (ok && (loc{bh, idx}) != want) {
								t.Fatalf("step %d: chain %d finds tx of %s@%d at %s[%d] (%v), the scan at %s[%d] (%v)",
									step, i, b.Hash().Short(), b.Header.Height, bh.Short(), idx, ok, want.block.Short(), want.index, onMain)
							}
						}
					}
				}
				for _, c := range chains {
					if got := c.TxIndexEntries(); got != len(scan) {
						t.Fatalf("step %d: %d index entries, the main chain holds %d transactions", step, got, len(scan))
					}
				}
			}

			const steps = 300
			agree(0, always)
			midStep := 1 + rng.Intn(steps-1)
			for step := 1; step <= steps; step++ {
				switch op := rng.Intn(10); {
				case op < 6: // extend a recent block, or fork off any earlier one
					parent := blocks[len(blocks)-1-rng.Intn(min(len(blocks), 3))]
					if rng.Intn(6) == 0 {
						parent = blocks[rng.Intn(len(blocks))]
					}
					b := childTxs(parent, fmt.Sprint("x", seed, "-", step), rng.Intn(4))
					if err := tree.Add(b); err != nil {
						t.Fatalf("step %d Add: %v", step, err)
					}
					journal.log(b)
					blocks = append(blocks, b)
				case op < 7:
					tree.EvictBodies(uint64(rng.Intn(int(always.Height()) + 2)))
				default:
					tip := blocks[len(blocks)-1-rng.Intn(min(len(blocks), 8))].Hash()
					if rng.Intn(4) == 0 {
						tip = blocks[rng.Intn(len(blocks))].Hash()
					}
					// Now and then the journal is down for a head switch: an
					// index that needed an evicted body is dropped, and rebuilt
					// by the next lookup.
					journal.down = rng.Intn(5) == 0
					for _, c := range []*Chain{always, mid, late} {
						if _, _, err := c.SetHead(tip); err != nil {
							t.Fatalf("step %d SetHead: %v", step, err)
						}
					}
					journal.down = false
				}
				findTx(t, always, cryptoutil.ZeroHash) // asked at every step: never without an index for the next
				if step == midStep {
					agree(step, always, mid)
				}
			}
			if late.TxIndexEntries() != 0 {
				t.Fatal("a chain nobody asked holds index entries")
			}
			if tree.BodiesResident() == tree.Len() || journal.reads == 0 {
				t.Fatalf("nothing was evicted and read back: %d of %d resident, %d reads", tree.BodiesResident(), tree.Len(), journal.reads)
			}
			agree(steps, always, mid, late)
		})
	}
}
