package store

import (
	"fmt"
	"slices"
	"sync"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
)

// Chain is the main-chain view over a block tree: the branch currently
// selected by the fork-choice rule, indexed by height. It also answers
// the "block age" question the paper ties trust to (Section 2.2) via
// Confirmations.
//
// The tree is rooted at a height-0 genesis, so a block's header height
// is its position in byHeight.
type Chain struct {
	mu       sync.RWMutex
	tree     *BlockTree
	byHeight []cryptoutil.Hash
	// txIndex locates every main-chain transaction once a FindTx has asked
	// for one; until then it is nil and nothing is kept per transaction.
	txIndex map[cryptoutil.Hash]txLocation
}

// txLocation is a main-chain position: the block's height (resolved
// through byHeight) and the transaction's index in it.
type txLocation struct {
	height, index uint32
}

// NewChain creates a main-chain view with the tree's root block as head.
func NewChain(tree *BlockTree) *Chain {
	return &Chain{tree: tree, byHeight: []cryptoutil.Hash{tree.Genesis()}}
}

// Tree returns the underlying block tree.
func (c *Chain) Tree() *BlockTree { return c.tree }

// SetHead re-points the main chain at the branch ending in tip. It
// returns the hashes that left the main chain (the reorged-out blocks)
// and those that joined it, which callers use to return transactions to
// the mempool and replay state. The cost is that of the blocks that
// move, not of the chain: the walk back from tip stops at the first
// main-chain block, and bodies are read only to keep up a transaction
// index. On an error (an unknown block) the chain is left as it was.
func (c *Chain) SetHead(tip cryptoutil.Hash) (removed, added []cryptoutil.Hash, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Walk back to the fork point: the root is always on the main chain.
	var forkHeight uint64
	for cur := tip; ; {
		hdr, ok := c.tree.Header(cur)
		if !ok {
			return nil, nil, fmt.Errorf("%w: %s", ErrUnknownBlock, cur.Short())
		}
		if c.onMainLocked(hdr.Height, cur) {
			forkHeight = hdr.Height
			break
		}
		added = append(added, cur)
		cur = hdr.ParentHash
	}
	slices.Reverse(added)
	keep := int(forkHeight) + 1
	removed = append(removed, c.byHeight[keep:]...)
	c.byHeight = append(c.byHeight[:keep], added...)
	// The index is a cache of the bodies: when one of them cannot be read
	// back it is dropped, and the next FindTx rebuilds it or says why not.
	if c.txIndex != nil && c.indexLocked(c.txIndex, removed, added) != nil {
		c.txIndex = nil
	}
	return removed, added, nil
}

// indexLocked takes the transactions of the blocks removed out of index
// and enters those of the blocks added.
func (c *Chain) indexLocked(index map[cryptoutil.Hash]txLocation, removed, added []cryptoutil.Hash) error {
	for i, h := range slices.Concat(removed, added) {
		b, err := c.tree.Block(h)
		if err != nil {
			return fmt.Errorf("store: index transactions of block %s: %w", h.Short(), err)
		}
		for j, tx := range b.Txs {
			if i < len(removed) {
				delete(index, tx.ID())
			} else {
				index[tx.ID()] = txLocation{height: uint32(b.Header.Height), index: uint32(j)}
			}
		}
	}
	return nil
}

// onMainLocked reports whether h is the main-chain block at height.
func (c *Chain) onMainLocked(height uint64, h cryptoutil.Hash) bool {
	return height < uint64(len(c.byHeight)) && c.byHeight[height] == h
}

// TxIndexEntries returns how many transactions the transaction index
// holds: 0 until a first FindTx has built it.
func (c *Chain) TxIndexEntries() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.txIndex)
}

// Head returns the current main-chain tip hash.
func (c *Chain) Head() cryptoutil.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byHeight[len(c.byHeight)-1]
}

// HeadBlock returns the current main-chain tip block.
func (c *Chain) HeadBlock() *types.Block {
	b, _ := c.tree.Get(c.Head())
	return b
}

// Height returns the head's header height: the main-chain length minus
// one.
func (c *Chain) Height() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return uint64(len(c.byHeight) - 1)
}

// AtHeight returns the main-chain block hash at the given height (false
// above the head).
func (c *Chain) AtHeight(h uint64) (cryptoutil.Hash, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if h >= uint64(len(c.byHeight)) {
		return cryptoutil.ZeroHash, false
	}
	return c.byHeight[h], true
}

// Contains reports whether block h is on the main chain.
func (c *Chain) Contains(h cryptoutil.Hash) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ht, err := c.tree.Height(h)
	return err == nil && c.onMainLocked(ht, h)
}

// Confirmations returns how many blocks follow h on the main chain,
// plus one (so the tip has 1 confirmation). Zero means not on the main
// chain — the paper's "trust grows with block age" quantity.
func (c *Chain) Confirmations(h cryptoutil.Hash) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ht, err := c.tree.Height(h)
	if err != nil || !c.onMainLocked(ht, h) {
		return 0
	}
	return uint64(len(c.byHeight)) - ht
}

// FindTx locates a transaction on the main chain, returning its block
// hash and index within the block. The first call builds the transaction
// index from every main-chain body, holding the chain's lock while it
// reads them; SetHead keeps it up from then on. A body that cannot be
// read back is the error, never "not found", and the next call retries.
func (c *Chain) FindTx(txID cryptoutil.Hash) (blockHash cryptoutil.Hash, index int, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.txIndex == nil {
		built := make(map[cryptoutil.Hash]txLocation)
		if err := c.indexLocked(built, nil, c.byHeight); err != nil {
			return cryptoutil.ZeroHash, 0, false, err
		}
		c.txIndex = built
	}
	loc, ok := c.txIndex[txID]
	if !ok {
		return cryptoutil.ZeroHash, 0, false, nil
	}
	return c.byHeight[loc.height], int(loc.index), true, nil
}

// Headers returns the main-chain headers from height `from` (inclusive),
// at most limit entries — the feed an SPV client or fast-sync peer pulls.
func (c *Chain) Headers(from uint64, limit int) []types.BlockHeader {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []types.BlockHeader
	for h := from; h < uint64(len(c.byHeight)) && len(out) < limit; h++ {
		hdr, _ := c.tree.Header(c.byHeight[h])
		out = append(out, *hdr)
	}
	return out
}
