// Package txpool implements the mempool: the set of pending transactions
// a peer has heard over gossip but not yet seen committed in a block.
// Block proposers draw from it with fee-priority selection — the market
// mechanism behind the paper's transaction-fee incentives (Section 2.4).
package txpool

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
)

// Pool errors, matchable with errors.Is.
var (
	ErrDuplicate = errors.New("txpool: transaction already pooled")
	ErrFull      = errors.New("txpool: pool full and fee too low")
	ErrCoinbase  = errors.New("txpool: coinbase transactions are not pooled")
)

// DefaultCapacity bounds the pool when no explicit capacity is given.
const DefaultCapacity = 4096

// Pool is a fee-prioritized mempool, safe for concurrent use.
type Pool struct {
	mu  sync.Mutex
	txs map[cryptoutil.Hash]*types.Transaction
	cap int

	// Admit→inclusion instrumentation (nil when not Instrumented):
	// admission instants per pooled tx, observed when the tx leaves the
	// pool inside a committed block.
	now       func() time.Time
	onInclude func(age time.Duration)
	admitted  map[cryptoutil.Hash]time.Time
}

// New creates a pool holding at most capacity transactions
// (DefaultCapacity if capacity <= 0).
func New(capacity int) *Pool {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Pool{
		txs: make(map[cryptoutil.Hash]*types.Transaction),
		cap: capacity,
	}
}

// Instrument enables admit→inclusion observability: now supplies the
// time base (pass the node's virtual or wall clock) and onInclude is
// invoked — after the pool's mutex is released, so it may call back
// into the pool — with the age of every admitted transaction that
// later leaves the pool inside a committed block. A transaction
// re-added after a reorg restarts its age at re-admission.
func (p *Pool) Instrument(now func() time.Time, onInclude func(age time.Duration)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.now = now
	p.onInclude = onInclude
	if p.admitted == nil {
		p.admitted = make(map[cryptoutil.Hash]time.Time)
	}
}

// Add validates and inserts a transaction. When the pool is full the
// lowest-fee transaction is evicted if the newcomer pays more; otherwise
// ErrFull is returned.
func (p *Pool) Add(tx *types.Transaction) error {
	if tx.Kind == types.TxCoinbase {
		return ErrCoinbase
	}
	if err := tx.Verify(); err != nil {
		return fmt.Errorf("txpool: %w", err)
	}
	id := tx.ID()
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.txs[id]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, id.Short())
	}
	if len(p.txs) >= p.cap {
		victim, minFee := p.cheapestLocked()
		if tx.Fee <= minFee {
			return fmt.Errorf("%w: fee %d <= floor %d", ErrFull, tx.Fee, minFee)
		}
		delete(p.txs, victim)
		delete(p.admitted, victim)
	}
	p.txs[id] = tx
	if p.now != nil {
		p.admitted[id] = p.now() //dcslint:ignore lockhold now is a pure time source (wall or virtual clock): it never blocks or re-enters the pool
	}
	return nil
}

// cheapestLocked picks the eviction victim: the lowest-fee transaction,
// with fee ties broken by largest tx hash. The tie-break matters — map
// iteration order is randomized, and a nondeterministic victim would
// break the simulator's seed-reproducibility guarantee.
func (p *Pool) cheapestLocked() (cryptoutil.Hash, uint64) {
	var (
		victim cryptoutil.Hash
		minFee = ^uint64(0)
		found  bool
	)
	for id, tx := range p.txs {
		switch {
		case !found || tx.Fee < minFee:
			victim, minFee, found = id, tx.Fee, true
		case tx.Fee == minFee && bytes.Compare(id[:], victim[:]) > 0:
			victim = id
		}
	}
	return victim, minFee
}

// Has reports whether the pool contains the transaction.
func (p *Pool) Has(id cryptoutil.Hash) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.txs[id]
	return ok
}

// Adopt replaces, in place, each of txs that the pool holds by the
// pool's instance of it, matched by id, under one hold of the pool's
// lock. A pooled instance passed Verify on admission, which memoizes the
// result, so a block decoded from the wire pays no signature check for
// the transactions it adopts, and the node keeps one copy of each.
func (p *Pool) Adopt(txs []*types.Transaction) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, tx := range txs {
		if pooled, ok := p.txs[tx.ID()]; ok {
			txs[i] = pooled
		}
	}
}

// Len returns the number of pooled transactions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.txs)
}

// Select returns up to maxTxs transactions totalling at most maxBytes of
// encoded size, highest fee first; ties and same-sender sequences are
// ordered by nonce so selected batches stay applicable. maxBytes <= 0
// means unlimited. Selected transactions remain pooled until Remove.
func (p *Pool) Select(maxTxs, maxBytes int) []*types.Transaction {
	p.mu.Lock()
	all := make([]*types.Transaction, 0, len(p.txs))
	for _, tx := range p.txs {
		all = append(all, tx)
	}
	p.mu.Unlock()

	// Two-phase ordering (a single comparator mixing fee and per-sender
	// nonce is not transitive): global fee priority first, then each
	// sender's transactions are rearranged into nonce order within the
	// slots that sender occupies, so selected batches stay applicable.
	// Fee ties break by sender (then nonce, then ID) rather than by ID
	// alone, so one sender's equal-fee nonce chain lands in consecutive
	// slots: the parallel executor speculates a contiguous same-sender
	// run as a single lane, and scattering the chain across the block
	// would make every later fragment a spurious conflict.
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Fee != b.Fee {
			return a.Fee > b.Fee
		}
		if a.From != b.From {
			return bytes.Compare(a.From[:], b.From[:]) < 0
		}
		if a.Nonce != b.Nonce {
			return a.Nonce < b.Nonce
		}
		ai, bi := a.ID(), b.ID()
		return bytes.Compare(ai[:], bi[:]) < 0
	})
	slots := make(map[cryptoutil.Address][]int, 8)
	for i, tx := range all {
		slots[tx.From] = append(slots[tx.From], i)
	}
	for _, idxs := range slots {
		if len(idxs) < 2 {
			continue
		}
		group := make([]*types.Transaction, len(idxs))
		for k, i := range idxs {
			group[k] = all[i]
		}
		sort.Slice(group, func(a, b int) bool { return group[a].Nonce < group[b].Nonce })
		for k, i := range idxs {
			all[i] = group[k]
		}
	}

	var (
		out   []*types.Transaction
		bytes int
	)
	for _, tx := range all {
		if maxTxs > 0 && len(out) >= maxTxs {
			break
		}
		if maxBytes > 0 { // sizes are worked out only against a budget
			sz := len(tx.Encode())
			if bytes+sz > maxBytes {
				continue
			}
			bytes += sz
		}
		out = append(out, tx)
	}
	return out
}

// Remove deletes the given transactions (typically after block commit).
func (p *Pool) Remove(ids ...cryptoutil.Hash) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		delete(p.txs, id)
		delete(p.admitted, id)
	}
}

// RemoveBlockTxs deletes every transaction included in block b,
// reporting each instrumented transaction's admit→inclusion age. Ages
// are collected under the lock but the onInclude callback runs only
// after the pool's mutex is released, so a callback is free to call
// back into the pool.
func (p *Pool) RemoveBlockTxs(b *types.Block) {
	p.mu.Lock()
	var ages []time.Duration
	for _, tx := range b.Txs {
		id := tx.ID()
		delete(p.txs, id)
		at, stamped := p.admitted[id]
		if !stamped {
			continue
		}
		delete(p.admitted, id)
		if p.onInclude != nil && p.now != nil {
			if age := p.now().Sub(at); age >= 0 { //dcslint:ignore lockhold now is a pure time source (wall or virtual clock): it never blocks or re-enters the pool
				ages = append(ages, age)
			}
		}
	}
	onInclude := p.onInclude
	p.mu.Unlock()
	if onInclude != nil {
		for _, age := range ages {
			onInclude(age)
		}
	}
}

// Readd returns reorged-out transactions to the pool, ignoring ones that
// no longer verify or duplicate pooled entries.
func (p *Pool) Readd(txs []*types.Transaction) {
	for _, tx := range txs {
		if tx.Kind == types.TxCoinbase {
			continue
		}
		_ = p.Add(tx) // best effort: duplicates and full pool are fine
	}
}
