package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
)

// memJournal is a body source over encoded blocks, as the WAL is: what
// it returns was decoded afresh, never the object that was added.
type memJournal struct {
	enc   map[cryptoutil.Hash][]byte
	fail  map[cryptoutil.Hash]bool
	down  bool // every read fails
	reads int
}

func newMemJournal() *memJournal {
	return &memJournal{enc: make(map[cryptoutil.Hash][]byte), fail: make(map[cryptoutil.Hash]bool)}
}

func (j *memJournal) log(b *types.Block) { j.enc[b.Hash()] = b.Encode() }

func (j *memJournal) HasBlock(h cryptoutil.Hash) bool { _, ok := j.enc[h]; return ok }

func (j *memJournal) ReadBlock(h cryptoutil.Hash) (*types.Block, error) {
	j.reads++
	if j.down || j.fail[h] {
		return nil, errors.New("memJournal: injected read failure")
	}
	return types.DecodeBlock(j.enc[h])
}

// TestEvictedBodiesEqualResident drives two trees with the same seeded
// sequence of adds, forks and head switches: one keeps everything in
// memory, the other has a body source, journals blocks with a lag and
// evicts at random depths. Everything either can be asked must agree,
// and every block must come back byte-identical.
func TestEvictedBodiesEqualResident(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := genesis()
			ram, evicting := NewBlockTree(g), NewBlockTree(g)
			journal := newMemJournal()
			evicting.SetBodySource(journal)
			ramChain, evChain := NewChain(ram), NewChain(evicting)
			// Asked once, both chains keep a transaction index, which every
			// SetHead below maintains from the moved blocks' bodies.
			findTx(t, ramChain, cryptoutil.ZeroHash)
			findTx(t, evChain, cryptoutil.ZeroHash)

			blocks := []*types.Block{g}
			var pending []*types.Block
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 6: // extend a recent block, or fork off an old one
					parent := blocks[len(blocks)-1-rng.Intn(min(len(blocks), 3))]
					if rng.Intn(8) == 0 {
						parent = blocks[rng.Intn(len(blocks))]
					}
					b := child(parent, fmt.Sprint("b", seed, "-", step))
					b.Header.Difficulty = uint64(1 + rng.Intn(5))
					for _, tree := range []*BlockTree{ram, evicting} {
						if err := tree.Add(b); err != nil {
							t.Fatalf("step %d Add: %v", step, err)
						}
					}
					blocks = append(blocks, b)
					pending = append(pending, b)
				case op < 7: // the journal catches up, not always fully
					keep := rng.Intn(3)
					for len(pending) > keep {
						journal.log(pending[0])
						pending = pending[1:]
					}
				case op < 8:
					evicting.EvictBodies(uint64(rng.Intn(int(ramChain.Height()) + 2)))
				default:
					tip := blocks[rng.Intn(len(blocks))].Hash()
					r1, a1, err1 := ramChain.SetHead(tip)
					r2, a2, err2 := evChain.SetHead(tip)
					if err1 != nil || err2 != nil {
						t.Fatalf("step %d SetHead: %v / %v", step, err1, err2)
					}
					if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(a1, a2) {
						t.Fatalf("step %d SetHead: removed/added differ", step)
					}
				}
				if !reflect.DeepEqual(ram.Tips(), evicting.Tips()) {
					t.Fatalf("step %d: tips differ", step)
				}
			}

			if evicting.BodiesResident() >= ram.BodiesResident() || journal.reads == 0 {
				t.Fatalf("nothing was evicted and read back: %d of %d resident, %d reads",
					evicting.BodiesResident(), ram.BodiesResident(), journal.reads)
			}
			for _, b := range pending {
				if _, err := evicting.Block(b.Hash()); err != nil {
					t.Fatalf("block %s, not yet journaled, lost: %v", b.Hash().Short(), err)
				}
			}
			if ramChain.Head() != evChain.Head() {
				t.Fatal("heads differ")
			}
			for _, b := range blocks {
				h := b.Hash()
				want, _ := ram.Get(h)
				got, err := evicting.Block(h)
				if err != nil {
					t.Fatalf("block %s: %v", h.Short(), err)
				}
				if !bytes.Equal(got.Encode(), want.Encode()) {
					t.Fatalf("block %s came back different", h.Short())
				}
				hdr, _ := evicting.Header(h)
				if hdr.Hash() != h {
					t.Fatalf("header of %s hashes to %s", h.Short(), hdr.Hash().Short())
				}
				td1, _ := ram.TotalDifficulty(h)
				td2, _ := evicting.TotalDifficulty(h)
				if txs, _ := evicting.TxCount(h); td1 != td2 || txs != len(want.Txs) {
					t.Fatalf("block %s: difficulty %d/%d, %d txs", h.Short(), td1, td2, txs)
				}
				if ramChain.Contains(h) != evChain.Contains(h) || ramChain.Confirmations(h) != evChain.Confirmations(h) {
					t.Fatalf("block %s: main-chain membership differs", h.Short())
				}
				for _, tx := range want.Txs {
					b1, i1, ok1 := findTx(t, ramChain, tx.ID())
					b2, i2, ok2 := findTx(t, evChain, tx.ID())
					if b1 != b2 || i1 != i2 || ok1 != ok2 || ok1 != ramChain.Contains(h) {
						t.Fatalf("tx of %s: index differs", h.Short())
					}
				}
			}
		})
	}
}

// TestFailedReadBackIsAnError: a body the source cannot produce is
// reported, by Block with the reason and by Get as absent. A first FindTx
// that needs it fails naming the block, builds nothing and succeeds once
// the body reads again. A SetHead never needs it: with no index it reads
// nothing, and with one it moves the head and drops the index it could
// not keep up, so the next FindTx answers from the bodies or with the
// reason, never with a stale "found" or a wrong "not found".
func TestFailedReadBackIsAnError(t *testing.T) {
	g := genesis()
	tree := NewBlockTree(g)
	journal := newMemJournal()
	tree.SetBodySource(journal)
	a1 := child(g, "a1")
	a2 := child(a1, "a2")
	b1 := child(g, "b1")
	for _, b := range []*types.Block{a1, a2, b1} {
		if err := tree.Add(b); err != nil {
			t.Fatal(err)
		}
		journal.log(b)
	}
	c, unasked := NewChain(tree), NewChain(tree)
	for _, chain := range []*Chain{c, unasked} {
		if _, _, err := chain.SetHead(a2.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	tree.EvictBodies(3)
	if got := tree.BodiesResident(); got != 1 {
		t.Fatalf("%d bodies resident after evicting everything, want the root's", got)
	}
	if journal.reads != 0 {
		t.Fatalf("%d read-backs before anything asked for a body", journal.reads)
	}
	journal.fail[a1.Hash()] = true

	if _, err := tree.Block(a1.Hash()); err == nil || errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("Block of an unreadable body: err = %v", err)
	}
	if _, ok := tree.Get(a1.Hash()); ok {
		t.Fatal("Get produced a block whose body cannot be read")
	}
	if _, err := tree.Block(cryptoutil.HashBytes([]byte("nothing"))); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("Block of an unknown hash: err = %v", err)
	}
	if _, ok := tree.Header(a1.Hash()); !ok {
		t.Fatal("header gone with the body")
	}

	// The first lookup reads every main-chain body: a1's failure is the
	// answer, not "not found", and nothing half-built is left behind.
	if _, _, ok, err := c.FindTx(a2.Txs[0].ID()); err == nil || ok || !strings.Contains(err.Error(), a1.Hash().Short()) {
		t.Fatalf("FindTx over an unreadable body: ok %v, err %v; want an error naming %s", ok, err, a1.Hash().Short())
	}
	if got := c.TxIndexEntries(); got != 0 {
		t.Fatalf("%d index entries after a failed build", got)
	}
	journal.fail[a1.Hash()] = false
	if bh, _, ok := findTx(t, c, a2.Txs[0].ID()); !ok || bh != a2.Hash() {
		t.Fatal("FindTx did not retry the build once the body read again")
	}
	if got := c.TxIndexEntries(); got != 2 {
		t.Fatalf("%d index entries, want a1's and a2's coinbases", got)
	}

	// Without an index a head switch moves headers only.
	journal.fail[a1.Hash()] = true
	reads := journal.reads
	if removed, added, err := unasked.SetHead(b1.Hash()); err != nil || len(removed) != 2 || len(added) != 1 {
		t.Fatalf("SetHead on a chain with no index: removed %d added %d err %v", len(removed), len(added), err)
	}
	if journal.reads != reads || unasked.TxIndexEntries() != 0 {
		t.Fatalf("a chain nobody looked a transaction up in read %d bodies and holds %d entries", journal.reads-reads, unasked.TxIndexEntries())
	}
	// With one, reorging a1,a2 out cannot unindex a1's transactions: the
	// head moves all the same and the index goes.
	if removed, added, err := c.SetHead(b1.Hash()); err != nil || len(removed) != 2 || len(added) != 1 || c.Head() != b1.Hash() {
		t.Fatalf("SetHead over an unreadable body: removed %d added %d err %v, head %s", len(removed), len(added), err, c.Head().Short())
	}
	if got := c.TxIndexEntries(); got != 0 {
		t.Fatalf("%d index entries kept after a head switch that could not update them", got)
	}
	// Rebuilt from the new main chain, which a1 is no longer on.
	if _, _, ok := findTx(t, c, a2.Txs[0].ID()); ok {
		t.Fatal("transaction of a reorged-out block found")
	}
	if bh, _, ok := findTx(t, c, b1.Txs[0].ID()); !ok || bh != b1.Hash() {
		t.Fatal("transaction of the new main chain not found")
	}
	// Back onto a1: the index cannot take its transactions in either.
	if _, _, err := c.SetHead(a2.Hash()); err != nil || c.Head() != a2.Hash() {
		t.Fatalf("SetHead onto an unreadable body: %v", err)
	}
	if _, _, ok, err := c.FindTx(a2.Txs[0].ID()); err == nil || ok {
		t.Fatalf("FindTx after a head switch onto an unreadable body: ok %v, err %v", ok, err)
	}
	journal.fail[a1.Hash()] = false
	if bh, _, ok := findTx(t, c, a1.Txs[0].ID()); !ok || bh != a1.Hash() {
		t.Fatal("FindTx once the body reads again")
	}
}
