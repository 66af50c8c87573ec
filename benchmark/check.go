package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
	"dcsledger/internal/types"
)

// chainView is the canonical chain the whole fleet agrees on, from
// height 1 to the common height, as served by the miner and pinned to
// every other node by its head hash.
type chainView struct {
	blocks []*types.Block // blocks[i] has height i+1
	// heads is every node's block hash at the common height; by the
	// hash chain, equal heads mean equal chains below.
	heads []cryptoutil.Hash
	// txHeight maps a user transaction to the height that holds it.
	txHeight map[cryptoutil.Hash]uint64
	// repeats counts user transactions that appear more than once.
	repeats int
	// linked is false if some block does not name its predecessor.
	linked bool
}

func fetchBlock(ctx context.Context, n *proc, height uint64) (*types.Block, error) {
	var b types.Block
	if err := getJSON(ctx, n.client, fmt.Sprintf("%s?height=%d", n.url("/block"), height), &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// fetchChain reads the common height (the lowest head), each node's
// block there, and the miner's whole chain below it.
func fetchChain(ctx context.Context, f *fleet) (*chainView, error) {
	var common uint64
	for i, n := range f.nodes {
		st, err := getStatus(ctx, n.client, n)
		if err != nil {
			return nil, err
		}
		if i == 0 || st.Height < common {
			common = st.Height
		}
	}
	if common == 0 {
		return nil, fmt.Errorf("common height is 0")
	}
	cv := &chainView{
		blocks:   make([]*types.Block, common),
		txHeight: make(map[cryptoutil.Hash]uint64),
		linked:   true,
	}
	for _, n := range f.nodes {
		b, err := fetchBlock(ctx, n, common)
		if err != nil {
			return nil, err
		}
		cv.heads = append(cv.heads, b.Hash())
	}

	// Blocks are JSON and the saturated chain holds tens of thousands
	// of transactions; a few parallel fetches keep this off the
	// critical path without loading the node much.
	const fetchers = 4
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for w := 0; w < fetchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for h := uint64(w + 1); h <= common; h += fetchers {
				b, err := fetchBlock(ctx, f.nodes[0], h)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				cv.blocks[h-1] = b
			}
		}(w)
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}

	for i, b := range cv.blocks {
		if b.Header.Height != uint64(i+1) {
			cv.linked = false
		}
		if i > 0 && b.Header.ParentHash != cv.blocks[i-1].Hash() {
			cv.linked = false
		}
		for _, tx := range b.Txs {
			if tx.Kind == types.TxCoinbase {
				continue
			}
			id := tx.ID()
			if _, dup := cv.txHeight[id]; dup {
				cv.repeats++
			}
			cv.txHeight[id] = b.Header.Height
		}
	}
	if cv.blocks[common-1].Hash() != cv.heads[0] {
		cv.linked = false
	}
	return cv, nil
}

// modelSample is how many accounts' final balance and nonce are
// compared with the ledger model on every node.
const modelSample = 64

// check runs the correctness checks and returns one line per failure.
func (o *observation) check(ctx context.Context, res *result) []string {
	var bad []string
	failf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	cv := o.chain

	// One chain: same block at the common height everywhere, and the
	// chain read from the miner hangs together.
	for i, h := range cv.heads {
		if h != cv.heads[0] {
			failf("head at common height %d differs: %s has %s, n0 has %s", len(cv.blocks), o.fleet.nodes[i].id, h.Short(), cv.heads[0].Short())
		}
	}
	if !cv.linked {
		failf("n0's canonical chain is not a hash chain up to the common head")
	}
	if cv.repeats > 0 {
		failf("%d transactions appear more than once in the canonical chain", cv.repeats)
	}

	// Every acknowledged transaction is in it.
	missing := 0
	for k := range o.recs {
		if !o.recs[k].acked.IsZero() {
			if _, ok := cv.txHeight[o.in.txs[k].id]; !ok {
				missing++
			}
		}
	}
	if missing > 0 {
		failf("%d acknowledged transactions are not in the canonical chain", missing)
	}

	// The fleet's accounts equal the generator's own ledger.
	model := newLedgerModel(o.in)
	for _, b := range cv.blocks {
		for _, tx := range b.Txs {
			if tx.Kind != types.TxCoinbase {
				model.apply(tx)
			}
		}
	}
	rng := rand.New(rand.NewSource(o.cfg.seed))
	for _, s := range rng.Perm(len(o.in.senders))[:min(modelSample, len(o.in.senders))] {
		addr := o.in.senders[s].Address()
		for _, n := range o.fleet.nodes {
			got, err := getAccount(ctx, n, addr)
			if err != nil {
				failf("read account on %s: %v", n.id, err)
				continue
			}
			if got.balance != model.balance[addr] || got.nonce != model.nonce[addr] {
				failf("%s: account %s is balance %d nonce %d, the model says %d and %d",
					n.id, addr.Short(), got.balance, got.nonce, model.balance[addr], model.nonce[addr])
			}
		}
	}

	// Every proof the reader got verifies against a canonical state root
	// and proves the leaf it came with.
	roots := make(map[cryptoutil.Hash]bool, len(cv.blocks))
	for _, b := range cv.blocks {
		roots[b.Header.StateRoot] = true
	}
	badProofs := 0
	for i := range o.reads {
		p := o.reads[i].proof
		if p == nil {
			continue
		}
		root, addr, leaf, proof, err := decodeProof(p)
		if err == nil {
			var got []byte
			got, _, err = mpt.VerifyProof(root, addr[:], proof)
			if err == nil && (!bytes.Equal(got, leaf) || !roots[root]) {
				err = fmt.Errorf("leaf or root mismatch")
			}
		}
		if err != nil {
			badProofs++
		}
	}
	if badProofs > 0 {
		failf("%d of the reader's proofs do not verify against a canonical state root", badProofs)
	}

	if !o.victimMatch {
		failf("after the fault, %s's block at its pre-kill height %d differs from n0's", o.fleet.nodes[o.victim].id, o.preKill)
	}

	// Fault counters, as reported: errors over both lives of every
	// process, dropped frames up to the end of the window (afterwards the
	// survivors rightly drop what they cannot send to the killed node).
	for _, name := range []string{"fleet.wal_append_errors", "fleet.disk_root_mismatches", "fleet.blocks_rejected", "fleet.p2p_dropped"} {
		if v := res.PerLayer[name].Value; v != 0 {
			failf("%s is %g, want 0", name, v)
		}
	}
	return bad
}
