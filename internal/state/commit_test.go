package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
)

// mapStore is a node store in a map: the sink a trie is flushed to and
// the source it is loaded back over. forget drops every node, as a
// pruned or lost store directory would.
type mapStore map[cryptoutil.Hash][]byte

func (m mapStore) Put(h cryptoutil.Hash, enc []byte) error {
	m[h] = append([]byte(nil), enc...)
	return nil
}

func (m mapStore) Has(h cryptoutil.Hash) bool { _, ok := m[h]; return ok }

func (m mapStore) Node(h cryptoutil.Hash, decode func(cryptoutil.Hash, []byte) (any, int, error)) (any, error) {
	enc, ok := m[h]
	if !ok {
		return nil, mpt.ErrMissingNode
	}
	v, _, err := decode(h, enc)
	return v, err
}

func (m mapStore) forget() {
	for h := range m {
		delete(m, h)
	}
}

// layerPool is the set of live layers of one property run. A layer with
// children is frozen (the package contract), so writes go to leaves.
type layerPool struct {
	t        *testing.T
	rng      *rand.Rand
	layers   []*State
	children map[*State]int
	addrs    []cryptoutil.Address
	store    mapStore
}

func (p *layerPool) pick() *State { return p.layers[p.rng.Intn(len(p.layers))] }

func (p *layerPool) leaf() *State {
	var leaves []*State
	for _, l := range p.layers {
		if p.children[l] == 0 {
			leaves = append(leaves, l)
		}
	}
	return leaves[p.rng.Intn(len(leaves))]
}

func (p *layerPool) addr() cryptoutil.Address { return p.addrs[p.rng.Intn(len(p.addrs))] }

func (p *layerPool) add(l *State) {
	p.layers = append(p.layers, l)
	if l.parent != nil {
		p.children[l.parent]++
	}
}

func (p *layerPool) drop(l *State) {
	for i, x := range p.layers {
		if x == l {
			p.layers = append(p.layers[:i], p.layers[i+1:]...)
			break
		}
	}
	if l.parent != nil {
		p.children[l.parent]--
	}
}

// check is the property: the memoized, incrementally derived root of a
// layer equals the root of a trie built from every live account.
func (p *layerPool) check(step int, op string, l *State) {
	p.t.Helper()
	full := l.AccountTrie()
	if got, want := l.Commit(), full.RootHash(); got != want {
		p.t.Fatalf("step %d (%s): Commit %s, full walk %s", step, op, got.Short(), want.Short())
	}
	a := p.addr()
	leaf, ok := l.AccountLeaf(a)
	if want, wantOK := full.Get(a[:]); ok != wantOK || !bytes.Equal(leaf, want) {
		p.t.Fatalf("step %d (%s): AccountLeaf %x,%v, full walk %x,%v", step, op, leaf, ok, want, wantOK)
	}
}

// write applies one random mutation to l.
func (p *layerPool) write(l *State) string {
	a := p.addr()
	slot := []byte{byte(p.rng.Intn(6))}
	switch p.rng.Intn(7) {
	case 0, 1:
		l.Credit(a, uint64(p.rng.Intn(50)))
		return "credit"
	case 2:
		_ = l.Debit(a, uint64(p.rng.Intn(20))) // may be refused: then nothing is written
		return "debit"
	case 3, 4:
		// Slots under addresses with and without an account record, and
		// empty values, which are present slots.
		l.SetStorage(a, slot, make([]byte, p.rng.Intn(3)))
		return "set-slot"
	case 5:
		l.DeleteStorage(a, slot)
		return "delete-slot"
	default:
		l.SetCode(a, []byte{byte(p.rng.Intn(3))})
		return "set-code"
	}
}

// TestPropertyCommitEqualsFullWalk drives random layer histories —
// writes, Copy off any layer (so forks off older ones), Absorb, Flatten,
// writes after Commit, released tries, tries flushed to a store and
// loaded back, a store that loses its nodes — and requires the
// incremental Commit to equal the full walk at every step.
func TestPropertyCommitEqualsFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			t.Parallel()
			p := &layerPool{
				t:        t,
				rng:      rand.New(rand.NewSource(seed)),
				children: make(map[*State]int),
				store:    make(mapStore),
			}
			for i := 0; i < 12; i++ {
				p.addrs = append(p.addrs, cryptoutil.KeyFromSeed([]byte{byte(i), 'c'}).Address())
			}
			base := New()
			for _, a := range p.addrs[:8] {
				base.Credit(a, 1000)
			}
			p.add(base)

			for step := 0; step < 600; step++ {
				var (
					l  *State
					op string
				)
				switch r := p.rng.Intn(20); {
				case r < 9:
					l = p.leaf()
					op = p.write(l)
				case r < 13:
					l = p.pick().Copy()
					p.add(l)
					op = "copy+" + p.write(l)
				case r < 14:
					// Fold an only child back into its parent, which then
					// has no children and is written to directly.
					c := p.leaf()
					if c.parent == nil || p.children[c.parent] != 1 {
						continue
					}
					l = c.parent
					l.Absorb(c)
					p.drop(c)
					op = "absorb"
				case r < 15:
					l = p.pick().Flatten()
					p.add(l)
					op = "flatten"
				case r < 17:
					l = p.pick()
					l.Commit()
					l.ReleaseTrie()
					op = "release"
				case r < 19:
					// Flush and load back, as the node does at a checkpoint.
					l = p.pick()
					tr := l.Trie()
					root, err := tr.Commit(p.store)
					if err != nil {
						t.Fatalf("step %d: flush: %v", step, err)
					}
					if !l.AdoptTrie(mpt.Load(root, tr.Len(), p.store)) {
						t.Fatalf("step %d: AdoptTrie refused the flushed trie", step)
					}
					op = "flush+adopt"
				default:
					p.store.forget()
					l = p.leaf()
					op = "forget+" + p.write(l)
				}
				p.check(step, op, l)
				if len(p.layers) > 24 {
					// Retire a leaf so the pool stays small and chains deep.
					if old := p.leaf(); old != l {
						p.drop(old)
					}
				}
			}
			for _, l := range p.layers {
				p.check(600, "final", l)
			}
		})
	}
}

// TestAdoptTrieRefusesOtherContents: a trie with a different root never
// becomes a state's memoized trie.
func TestAdoptTrieRefusesOtherContents(t *testing.T) {
	s := New()
	s.Credit(cryptoutil.KeyFromSeed([]byte("a")).Address(), 5)
	want := s.Commit()
	if s.AdoptTrie(mpt.New().Set([]byte("k"), []byte("v"))) {
		t.Fatal("AdoptTrie accepted a trie with another root")
	}
	if s.Commit() != want || s.Trie().RootHash() != want {
		t.Fatal("refused AdoptTrie changed the state's commitment")
	}
}

// TestCommitDoesNotTouchAccessFootprint: committing a tracked layer
// reads accounts and slots, but none of it is execution.
func TestCommitDoesNotTouchAccessFootprint(t *testing.T) {
	base := New()
	a := cryptoutil.KeyFromSeed([]byte("a")).Address()
	base.Credit(a, 5)
	base.SetStorage(a, []byte("k"), []byte("v"))
	base.Commit()
	lane := base.Copy()
	acc := NewAccess()
	lane.Track(acc)
	lane.SetStorage(a, []byte("k2"), []byte("v"))
	lane.Commit()
	if len(acc.ReadAccounts) != 0 || len(acc.ReadSlots) != 0 {
		t.Fatalf("Commit recorded reads: accounts %d, slots %d", len(acc.ReadAccounts), len(acc.ReadSlots))
	}
}
