// Package store holds the persistence layer of a peer: the block tree
// (all blocks ever received, including branches — the raw material for
// branch-selection algorithms), the main-chain index derived from a fork
// choice, and the off-chain store of Section 4.5 (bulk data kept outside
// the blockchain, anchored on-chain by hash).
package store

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
)

// Block tree errors, matchable with errors.Is.
var (
	ErrUnknownParent = errors.New("store: unknown parent block")
	ErrUnknownBlock  = errors.New("store: unknown block")
	ErrDuplicate     = errors.New("store: duplicate block")
	ErrBadHeight     = errors.New("store: height must be parent height + 1")
	ErrHasGenesis    = errors.New("store: genesis already set")
)

// BodySource reads back the bodies of blocks the tree has let go of:
// the write-ahead log every connected block was journaled into.
// HasBlock says whether ReadBlock can serve a block; only such blocks
// are ever evicted.
type BodySource interface {
	HasBlock(h cryptoutil.Hash) bool
	ReadBlock(h cryptoutil.Hash) (*types.Block, error)
}

// entry is what the tree keeps for every block for as long as it names
// it: the header, how many transactions the body has, the cumulative
// difficulty from the tree's root, and the children. The body is there
// until EvictBodies drops it; from then on it is read from the source.
type entry struct {
	header   *types.BlockHeader // the body's own header while the body is resident
	body     *types.Block       // nil once evicted
	total    uint64             // sum of Header.Difficulty from the root to here
	txs      int
	children []cryptoutil.Hash
}

// BlockTree stores every received block, indexed by hash, with a
// child index so branch-selection algorithms can walk the tree. Headers
// stay in memory for every block; with a body source (SetBodySource) the
// transactions of old blocks do not, and Get reads them back. Without
// one the tree is memory-only and nothing is ever evicted. It is safe
// for concurrent use.
type BlockTree struct {
	mu      sync.RWMutex
	blocks  map[cryptoutil.Hash]*entry
	tips    map[cryptoutil.Hash]struct{} // blocks without children
	genesis cryptoutil.Hash
	src     BodySource
	// resident lists the non-root blocks whose body is in memory, kept
	// only with a source: the candidates of the next EvictBodies.
	resident []cryptoutil.Hash
}

// NewBlockTree creates a block tree rooted at the given genesis block.
func NewBlockTree(genesis *types.Block) *BlockTree {
	h := genesis.Hash()
	return &BlockTree{
		blocks: map[cryptoutil.Hash]*entry{h: {
			header: &genesis.Header,
			body:   genesis,
			total:  genesis.Header.Difficulty,
			txs:    len(genesis.Txs),
		}},
		tips:    map[cryptoutil.Hash]struct{}{h: {}},
		genesis: h,
	}
}

// Genesis returns the genesis block hash.
func (t *BlockTree) Genesis() cryptoutil.Hash {
	return t.genesis
}

// SetBodySource makes src the place evicted bodies are read back from.
// Call before the first Add. The root's body always stays resident, so
// a source need not hold it.
func (t *BlockTree) SetBodySource(src BodySource) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.src = src
}

// Add inserts a block whose parent must already be present.
func (t *BlockTree) Add(b *types.Block) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := b.Hash()
	if _, ok := t.blocks[h]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, h.Short())
	}
	parent, ok := t.blocks[b.Header.ParentHash]
	if !ok {
		return fmt.Errorf("%w: %s (parent of %s)", ErrUnknownParent, b.Header.ParentHash.Short(), h.Short())
	}
	if b.Header.Height != parent.header.Height+1 {
		return fmt.Errorf("%w: got %d, parent at %d", ErrBadHeight, b.Header.Height, parent.header.Height)
	}
	t.blocks[h] = &entry{
		header: &b.Header,
		body:   b,
		total:  parent.total + b.Header.Difficulty,
		txs:    len(b.Txs),
	}
	parent.children = append(parent.children, h)
	delete(t.tips, b.Header.ParentHash)
	t.tips[h] = struct{}{}
	if t.src != nil {
		t.resident = append(t.resident, h)
	}
	return nil
}

// EvictBodies drops the body of every block lower than height below
// that the source can serve again, keeping its header. Without a source
// there is nothing it may drop.
func (t *BlockTree) EvictBodies(below uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := 0
	for _, h := range t.resident {
		e := t.blocks[h]
		if e.header.Height < below && t.src.HasBlock(h) {
			hdr := *e.header // the header must not keep the body reachable
			e.header, e.body = &hdr, nil
			continue
		}
		t.resident[k] = h
		k++
	}
	t.resident = t.resident[:k]
}

// BodiesResident returns how many blocks have their body in memory.
func (t *BlockTree) BodiesResident() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.src == nil {
		return len(t.blocks)
	}
	return len(t.resident) + 1
}

// Block returns the block with the given hash: from memory, or read
// back from the body source outside the tree's lock. The error is
// ErrUnknownBlock for a hash the tree does not name, otherwise the
// source's reason for failing to produce a body the tree does name.
func (t *BlockTree) Block(h cryptoutil.Hash) (*types.Block, error) {
	t.mu.RLock()
	e, ok := t.blocks[h]
	var body *types.Block
	if ok {
		body = e.body
	}
	src := t.src
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBlock, h.Short())
	}
	if body != nil {
		return body, nil
	}
	return src.ReadBlock(h)
}

// Get returns the block with the given hash; false if the tree does not
// name it or its body could not be read back (Block tells which).
func (t *BlockTree) Get(h cryptoutil.Hash) (*types.Block, bool) {
	b, err := t.Block(h)
	return b, err == nil
}

// Header returns the header of block h without touching its body.
func (t *BlockTree) Header(h cryptoutil.Hash) (*types.BlockHeader, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.blocks[h]
	if !ok {
		return nil, false
	}
	return e.header, true
}

// TxCount returns how many transactions block h holds.
func (t *BlockTree) TxCount(h cryptoutil.Hash) (int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.blocks[h]
	if !ok {
		return 0, false
	}
	return e.txs, true
}

// Has reports whether the block is in the tree.
func (t *BlockTree) Has(h cryptoutil.Hash) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.blocks[h]
	return ok
}

// Len returns the number of blocks in the tree (including genesis).
func (t *BlockTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.blocks)
}

// Children returns the direct children of h.
func (t *BlockTree) Children(h cryptoutil.Hash) []cryptoutil.Hash {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.blocks[h]
	if !ok {
		return []cryptoutil.Hash{}
	}
	out := make([]cryptoutil.Hash, len(e.children))
	copy(out, e.children)
	return out
}

// Tips returns the hashes of all leaf blocks (chain tips of every
// branch). The tip set is maintained by Add, so this costs O(tips).
func (t *BlockTree) Tips() []cryptoutil.Hash {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]cryptoutil.Hash, 0, len(t.tips))
	for h := range t.tips {
		out = append(out, h)
	}
	// Sorted so callers see one canonical order: fork-choice folds over
	// tips, and map-iteration order must not leak into anything a
	// replica computes.
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i][:], out[j][:]) < 0
	})
	return out
}

// PathFromGenesis returns the block hashes from genesis to h inclusive.
func (t *BlockTree) PathFromGenesis(h cryptoutil.Hash) ([]cryptoutil.Hash, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var rev []cryptoutil.Hash
	cur := h
	for {
		e, ok := t.blocks[cur]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownBlock, cur.Short())
		}
		rev = append(rev, cur)
		if cur == t.genesis {
			break
		}
		cur = e.header.ParentHash
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// SubtreeSize returns the number of blocks in the subtree rooted at h
// (including h itself). It is the weight function of the GHOST branch
// selection rule.
func (t *BlockTree) SubtreeSize(h cryptoutil.Hash) (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, ok := t.blocks[h]; !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBlock, h.Short())
	}
	count := 0
	stack := []cryptoutil.Hash{h}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		stack = append(stack, t.blocks[cur].children...)
	}
	return count, nil
}

// Height returns the height of block h.
func (t *BlockTree) Height(h cryptoutil.Hash) (uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.blocks[h]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBlock, h.Short())
	}
	return e.header.Height, nil
}

// TotalDifficulty sums header difficulty from genesis to h: the
// heaviest-chain weight used by difficulty-aware longest-chain selection.
// Add accumulates it, so this is a lookup.
func (t *BlockTree) TotalDifficulty(h cryptoutil.Hash) (uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.blocks[h]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBlock, h.Short())
	}
	return e.total, nil
}
