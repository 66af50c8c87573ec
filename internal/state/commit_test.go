package state

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
	"dcsledger/internal/types"
)

// mapStore is a node store in a map: the sink a trie is flushed to and
// the source it is loaded back over. While lost it answers no read, as a
// failing disk or a pruned directory would.
type mapStore struct {
	nodes map[cryptoutil.Hash][]byte
	lost  bool
	last  cryptoutil.Hash // the record read last
}

func (m *mapStore) Put(h cryptoutil.Hash, enc []byte) error {
	m.nodes[h] = append([]byte(nil), enc...)
	return nil
}

func (m *mapStore) Has(h cryptoutil.Hash) bool { _, ok := m.nodes[h]; return ok }

func (m *mapStore) Node(h cryptoutil.Hash, decode func(cryptoutil.Hash, []byte) (any, int, error)) (any, error) {
	enc, ok := m.nodes[h]
	if !ok || m.lost {
		return nil, mpt.ErrMissingNode
	}
	m.last = h
	v, _, err := decode(h, enc)
	return v, err
}

// model is the plain-map state every layer is checked against.
type model struct {
	acc  map[cryptoutil.Address]Account
	code map[cryptoutil.Address][]byte
	slot map[cryptoutil.Address]map[string][]byte
}

func newModel() *model {
	return &model{
		acc:  make(map[cryptoutil.Address]Account),
		code: make(map[cryptoutil.Address][]byte),
		slot: make(map[cryptoutil.Address]map[string][]byte),
	}
}

// trie builds the account trie the model's contents commit to, from
// nothing: the reference every incremental Commit is held to.
func (m *model) trie() *mpt.Trie {
	tr := mpt.New()
	for a, acc := range m.acc {
		st := mpt.New()
		for k, v := range m.slot[a] {
			st = st.Set([]byte(k), v)
		}
		tr = tr.Set(a[:], encodeLeaf(acc, st.RootHash()))
	}
	return tr
}

func (m *model) clone() *model {
	c := newModel()
	for a, v := range m.acc {
		c.acc[a] = v
	}
	for a, v := range m.code {
		c.code[a] = v
	}
	for a, sl := range m.slot {
		c.slot[a] = make(map[string][]byte, len(sl))
		for k, v := range sl {
			c.slot[a][k] = v
		}
	}
	return c
}

// layerPool is the set of live layers of one property run, each with the
// model of what it must contain. A layer with children is frozen (the
// package contract), so writes go to leaves, and never to a compacted one.
type layerPool struct {
	t         *testing.T
	rng       *rand.Rand
	layers    []*State
	models    map[*State]*model
	children  map[*State]int
	compacted map[*State]bool
	addrs     []cryptoutil.Address
	store     *mapStore
}

func (p *layerPool) pick() *State { return p.layers[p.rng.Intn(len(p.layers))] }

// leaf returns a random layer without children; a writable one — not
// compacted — if writable is set, nil if there is none.
func (p *layerPool) leaf(writable bool) *State {
	var leaves []*State
	for _, l := range p.layers {
		if p.children[l] == 0 && !(writable && p.compacted[l]) {
			leaves = append(leaves, l)
		}
	}
	if len(leaves) == 0 {
		return nil
	}
	return leaves[p.rng.Intn(len(leaves))]
}

func (p *layerPool) addr() cryptoutil.Address { return p.addrs[p.rng.Intn(len(p.addrs))] }

func (p *layerPool) add(l *State, m *model) {
	p.layers = append(p.layers, l)
	p.models[l] = m
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
	delete(p.models, l)
	if l.parent != nil {
		p.children[l.parent]--
	}
}

// reads compares everything a reader can ask of l with the model m and
// returns the first difference. It reads through a private copy, as the
// node's readers do, and returns that copy's read error.
func (p *layerPool) reads(l *State, m *model) (diff string, readErr error) {
	v := l.Copy()
	for _, a := range p.addrs {
		if got, want := v.Account(a), m.acc[a]; got != want {
			return fmt.Sprintf("Account(%s) = %+v, want %+v", a.Short(), got, want), v.Err()
		}
		if got, want := v.Code(a), m.code[a]; !bytes.Equal(got, want) {
			return fmt.Sprintf("Code(%s) = %x, want %x", a.Short(), got, want), v.Err()
		}
		for k := byte(0); k < 6; k++ {
			// An empty value reads like an absent slot; Commit tells them apart.
			want := m.slot[a][string([]byte{k})]
			if got := v.Storage(a, []byte{k}); !bytes.Equal(got, want) {
				return fmt.Sprintf("Storage(%s, %d) = %x, want %x", a.Short(), k, got, want), v.Err()
			}
		}
	}
	addrs := v.Addresses()
	if len(addrs) != len(m.acc) || v.Len() != len(m.acc) {
		return fmt.Sprintf("Addresses: %d, Len %d, want %d", len(addrs), v.Len(), len(m.acc)), v.Err()
	}
	for i, a := range addrs {
		if _, ok := m.acc[a]; !ok || (i > 0 && bytes.Compare(addrs[i-1][:], a[:]) >= 0) {
			return fmt.Sprintf("Addresses[%d] = %s: unknown or out of order", i, a.Short()), v.Err()
		}
	}
	return "", v.Err()
}

// check is the property: l reads as its model does, and its memoized,
// incrementally derived root equals the root of a trie built from
// nothing out of the model's accounts and slots.
func (p *layerPool) check(step int, op string, l *State) {
	p.t.Helper()
	if diff, err := p.reads(l, p.models[l]); diff != "" || err != nil {
		p.t.Fatalf("step %d (%s): %s (read error: %v)", step, op, diff, err)
	}
	full := p.models[l].trie()
	if got, want := l.Commit(), full.RootHash(); got != want || l.Err() != nil || l.AccountTrie().RootHash() != want {
		p.t.Fatalf("step %d (%s): Commit %s, the model's trie %s (%v)", step, op, got.Short(), want.Short(), l.Err())
	}
	a := p.addr()
	leaf, ok := l.AccountLeaf(a)
	if want, wantOK := full.Get(a[:]); ok != wantOK || !bytes.Equal(leaf, want) {
		p.t.Fatalf("step %d (%s): AccountLeaf %x,%v, full walk %x,%v", step, op, leaf, ok, want, wantOK)
	}
}

// write applies one random mutation to l and to m.
func (p *layerPool) write(l *State, m *model) string {
	a := p.addr()
	slot := []byte{byte(p.rng.Intn(6))}
	acc, exists := m.acc[a]
	switch p.rng.Intn(6) {
	case 0, 1:
		n := uint64(p.rng.Intn(50))
		l.Credit(a, n)
		acc.Balance += n
		m.acc[a] = acc
		return "credit"
	case 2:
		n := uint64(p.rng.Intn(20))
		// May be refused: then nothing is written.
		if err := l.Debit(a, n); (err != nil) != (acc.Balance < n) && l.Err() == nil {
			p.t.Fatalf("Debit(%d) of %d: %v", n, acc.Balance, err)
		}
		if acc.Balance >= n {
			acc.Balance -= n
			m.acc[a] = acc
		}
		return "debit"
	case 3, 4:
		// Slots live under an account record (SetStorage); empty values
		// are present slots.
		if !exists {
			l.Credit(a, 0)
			m.acc[a] = acc
		}
		v := make([]byte, p.rng.Intn(3))
		l.SetStorage(a, slot, v)
		if m.slot[a] == nil {
			m.slot[a] = make(map[string][]byte)
		}
		m.slot[a][string(slot)] = v
		return "set-slot"
	default:
		code := []byte{byte(p.rng.Intn(3))}
		l.SetCode(a, code)
		acc.Code = codeHash(code)
		m.acc[a], m.code[a] = acc, code
		return "set-code"
	}
}

// TestPropertyCommitEqualsFullWalk drives random layer histories —
// writes, Copy off any layer (so forks off older ones), Absorb, Detach,
// writes after Commit, released tries, tries flushed to a store and
// loaded back, a store that stops answering, layers compacted (their trie
// released or not) with a child written on top — and requires, at every
// step, every read of the layer to equal a plain-map model and the
// incremental Commit to equal the model's trie. While the store is lost a
// read may fail, but only loudly: never a wrong answer without Err. The
// writes include slots and contract code, so a compacted layer is read,
// walked by a child's commit and absorbed with all three.
func TestPropertyCommitEqualsFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			t.Parallel()
			p := &layerPool{
				t:         t,
				rng:       rand.New(rand.NewSource(seed)),
				models:    make(map[*State]*model),
				children:  make(map[*State]int),
				compacted: make(map[*State]bool),
				store:     &mapStore{nodes: make(map[cryptoutil.Hash][]byte)},
			}
			for i := 0; i < 12; i++ {
				p.addrs = append(p.addrs, cryptoutil.KeyFromSeed([]byte{byte(i), 'c'}).Address())
			}
			base, m := New(), newModel()
			for _, a := range p.addrs[:8] {
				base.Credit(a, 1000)
				m.acc[a] = Account{Balance: 1000}
			}
			p.add(base, m)

			for step := 0; step < 600; step++ {
				var (
					l  *State
					op string
				)
				switch r := p.rng.Intn(22); {
				case r < 9:
					if l = p.leaf(true); l == nil {
						continue
					}
					op = p.write(l, p.models[l])
				case r < 13:
					parent := p.pick()
					l = parent.Copy()
					p.add(l, p.models[parent].clone())
					op = "copy+" + p.write(l, p.models[l])
				case r < 14:
					// Fold an only child back into its parent, which then
					// has no children and is written to directly.
					c := p.leaf(false)
					if c.parent == nil || p.children[c.parent] != 1 || p.compacted[c.parent] {
						continue
					}
					l = c.parent
					l.Absorb(c)
					p.models[l] = p.models[c]
					p.drop(c)
					op = "absorb"
				case r < 15:
					from := p.pick()
					l = from.Detach()
					if l == from || readDepth(l) != 1 {
						t.Fatalf("step %d: Detach: same state %v, read depth %d", step, l == from, readDepth(l))
					}
					p.add(l, p.models[from].clone())
					op = "detach"
				case r < 17:
					l = p.pick()
					l.Commit()
					l.ReleaseTrie()
					op = "release"
				case r < 19:
					// Flush and load back, as the node does at a checkpoint:
					// storage tries and code go with the account trie.
					l = p.pick()
					tr := l.AccountTrie()
					root, err := tr.Commit(p.store)
					if err != nil {
						t.Fatalf("step %d: flush: %v", step, err)
					}
					if !l.AdoptTrie(mpt.Load(root, tr.Len(), p.store)) || !l.Stored() {
						t.Fatalf("step %d: AdoptTrie refused the flushed trie", step)
					}
					op = "flush+adopt"
				case r < 20:
					// The store stops answering. A block applied now works
					// on a throwaway layer: it fails loudly or is right.
					l = p.pick()
					p.store.lost = true
					if diff, err := p.reads(l, p.models[l]); diff != "" && err == nil {
						t.Fatalf("step %d: store lost: %s, and no read error", step, diff)
					}
					c, cm := l.Copy(), p.models[l].clone()
					p.write(c, cm)
					if root := c.Commit(); c.Err() == nil {
						if diff, err := p.reads(c, cm); diff != "" && err == nil {
							t.Fatalf("step %d: store lost, no error, but %s", step, diff)
						}
					} else if !errors.Is(c.Err(), ErrRead) || !root.IsZero() {
						t.Fatalf("step %d: store lost: Commit %s, Err %v", step, root.Short(), c.Err())
					}
					p.store.lost = false
					op = "lost+healed"
				default:
					// Compact a layer, as the node does once it releases the
					// trie (here: half the time), and check it; then write a
					// child over it, whose commit walks the cold writes when
					// the trie is gone.
					from := p.pick()
					from.Commit()
					if p.rng.Intn(2) == 0 {
						from.ReleaseTrie()
					}
					from.Compact()
					p.compacted[from] = true
					p.check(step, "compact", from)
					l = from.Copy()
					p.add(l, p.models[from].clone())
					op = "compact+copy+" + p.write(l, p.models[l])
				}
				p.check(step, op, l)
				if len(p.layers) > 24 {
					// Retire a leaf so the pool stays small and chains deep.
					if old := p.leaf(false); old != l {
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
	if s.Commit() != want || s.AccountTrie().RootHash() != want {
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

// contractState is a small state with everything a flush has to carry:
// plain accounts, and a contract with code and two slots.
func contractState() (*State, cryptoutil.Address) {
	s := New()
	for i := byte(0); i < 5; i++ {
		s.Credit(cryptoutil.KeyFromSeed([]byte{i, 'g'}).Address(), 100+uint64(i))
	}
	c := cryptoutil.KeyFromSeed([]byte("contract")).Address()
	s.SetCode(c, []byte("native:notary"))
	s.SetStorage(c, []byte("doc/a"), []byte("alice"))
	s.SetStorage(c, []byte("doc/b"), []byte{})
	return s, c
}

// TestFlushGolden pins what a flush puts in a node store beside the
// account trie's nodes: the nodes of each contract's storage trie under
// their hashes, and its code, raw, under the code hash. With the root a
// snapshot-less checkpoint records, these records are the state; the
// leaves are inside their branches'. A second flush, over the state
// loaded back, is pinned too: its account root is a delta against the
// first's.
func TestFlushGolden(t *testing.T) {
	s, c := contractState()
	store := &mapStore{nodes: make(map[cryptoutil.Hash][]byte)}
	root, err := s.AccountTrie().Commit(store)
	if err != nil || root != s.Commit() {
		t.Fatalf("flush: root %s, err %v", root.Short(), err)
	}
	if got := store.nodes[codeHash([]byte("native:notary"))]; string(got) != "native:notary" {
		t.Fatalf("code record = %q", got)
	}
	const want = "1c2879ebaab4ada3dd0f35fed04e8a7a83214c9fad5480ad621cf790a07832b3"
	if n, got := recordsSum(store.nodes, nil); got != want || n != 5 {
		t.Fatalf("%d records, sha256 %s; want 5, %s", n, got, want)
	}

	// The root and the store are enough to open the state again.
	l := Load(root, store)
	if !l.Stored() || string(l.Code(c)) != "native:notary" || string(l.Storage(c, []byte("doc/a"))) != "alice" ||
		l.Len() != 6 || l.AccountTrie().RootHash() != root || l.Err() != nil {
		t.Fatalf("loaded state: code %q, slot %q, %d accounts, err %v", l.Code(c), l.Storage(c, []byte("doc/a")), l.Len(), l.Err())
	}
	enc, err := l.EncodeSnapshot()
	if want, _ := s.EncodeSnapshot(); err != nil || !bytes.Equal(enc, want) {
		t.Fatalf("snapshot of the loaded state differs from the written one's (%v)", err)
	}

	// A second flush, of the loaded state changed, writes the account
	// trie's root as a delta against the first flush's, its two changed
	// leaves by value; the storage trie's branch under its extension, of
	// three small leaves, is shorter written full.
	first := maps.Clone(store.nodes)
	payer := cryptoutil.KeyFromSeed([]byte{0, 'g'}).Address()
	l.Credit(payer, 1)
	l.SetStorage(c, []byte("doc/c"), []byte("carol"))
	root2, err := l.AccountTrie().Commit(store)
	if err != nil || root2 != l.Commit() {
		t.Fatalf("second flush: root %s, err %v", root2.Short(), err)
	}
	const want2 = "738aa0e47176ba00a074ff8abe216dade1a5cc0428e1fc9755fcc5794c72a7f7"
	if n, got := recordsSum(store.nodes, first); got != want2 || n != 3 {
		t.Fatalf("second flush: %d records, sha256 %s; want 3, %s", n, got, want2)
	}
	deltas := 0
	for h, enc := range store.nodes {
		if _, ok := first[h]; !ok && mpt.IsDelta(enc) {
			deltas++
		}
	}
	l2 := Load(root2, store)
	if deltas != 1 || l2.Balance(payer) != 101 || string(l2.Storage(c, []byte("doc/a"))) != "alice" ||
		string(l2.Storage(c, []byte("doc/c"))) != "carol" || l2.Err() != nil {
		t.Fatalf("%d deltas; reloaded: balance %d, slots %q %q, err %v", deltas, l2.Balance(payer),
			l2.Storage(c, []byte("doc/a")), l2.Storage(c, []byte("doc/c")), l2.Err())
	}
}

// recordsSum returns how many records nodes holds that skip does not,
// and the SHA-256 of them, each its hash then its bytes, in hash order.
func recordsSum(nodes, skip map[cryptoutil.Hash][]byte) (int, string) {
	var hashes []cryptoutil.Hash
	for h := range nodes {
		if _, ok := skip[h]; !ok {
			hashes = append(hashes, h)
		}
	}
	sort.Slice(hashes, func(i, j int) bool { return bytes.Compare(hashes[i][:], hashes[j][:]) < 0 })
	sum := sha256.New()
	for _, h := range hashes {
		sum.Write(h[:])
		sum.Write(nodes[h])
	}
	return len(hashes), hex.EncodeToString(sum.Sum(nil))
}

// TestFailedReadIsAnErrorNotAnAbsentAccount: a store that forgets one
// node turns every operation that needs it into ErrRead — never into an
// empty account, a zero balance or a root — and the same block applies,
// to the same root, once the node is back.
func TestFailedReadIsAnErrorNotAnAbsentAccount(t *testing.T) {
	s, c := contractState()
	store := &mapStore{nodes: make(map[cryptoutil.Hash][]byte)}
	root, err := s.AccountTrie().Commit(store)
	if err != nil {
		t.Fatal(err)
	}
	miner := cryptoutil.KeyFromSeed([]byte{3, 'g'}).Address()
	b := types.NewBlock(cryptoutil.ZeroHash, 1, 0, miner, []*types.Transaction{types.NewCoinbase(miner, 50, 1)})
	ref := s.Copy()
	if _, err := ref.ApplyBlock(b, 50); err != nil {
		t.Fatal(err)
	}

	// Forget the root of the contract's storage trie, then a node on the
	// miner's path: the first breaks slot reads only, the second accounts.
	var errs atomic.Uint64
	parent := Load(root, store)
	parent.CountReadErrors(&errs)
	lf, _, _ := readLeaf(parent.AccountTrie(), c)
	kept := store.nodes[lf.storageRoot]
	delete(store.nodes, lf.storageRoot)
	v := parent.Copy()
	if got := v.Storage(c, []byte("doc/a")); got != nil || !errors.Is(v.Err(), ErrRead) {
		t.Fatalf("slot read over a missing storage node = %q, Err %v", got, v.Err())
	}
	if v := parent.Copy(); v.Balance(miner) != 103 || v.Err() != nil {
		t.Fatalf("account read must not need the storage trie: %d, %v", v.Balance(miner), v.Err())
	}
	store.nodes[lf.storageRoot] = kept

	// The record that holds the miner's leaf: the last its read resolves.
	if v := parent.Copy(); v.Balance(miner) != 103 {
		t.Fatal("the miner's account does not read")
	}
	victim := store.last
	kept = store.nodes[victim]
	delete(store.nodes, victim)
	st := parent.Copy()
	if _, err := st.ApplyBlock(b, 50); !errors.Is(err, ErrRead) || !errors.Is(err, mpt.ErrMissingNode) {
		t.Fatalf("ApplyBlock over a missing node: %v", err)
	}
	if root := st.Commit(); !root.IsZero() {
		t.Fatalf("a layer with a failed read committed to %s", root.Short())
	}
	if errs.Load() == 0 {
		t.Fatal("failed reads were not counted")
	}
	if parent.Err() != nil {
		t.Fatalf("the frozen parent latched its child's error: %v", parent.Err())
	}
	store.nodes[victim] = kept
	st = parent.Copy()
	if _, err := st.ApplyBlock(b, 50); err != nil || st.Commit() != ref.Commit() {
		t.Fatalf("healed store: err %v, root %s, want %s", err, st.Commit().Short(), ref.Commit().Short())
	}
}

// TestSharedStateLatchesConcurrently: a frozen state whose trie was
// released is shared; readers that derive it again over a store that
// stopped answering fail together, and latching the error is not a race
// with one another or with a reader of Err (run under -race).
func TestSharedStateLatchesConcurrently(t *testing.T) {
	s, c := contractState()
	store := &mapStore{nodes: make(map[cryptoutil.Hash][]byte)}
	root, err := s.AccountTrie().Commit(store)
	if err != nil {
		t.Fatal(err)
	}
	shared := Load(root, store).Copy()
	shared.Credit(c, 1)
	want := shared.Commit()
	shared.ReleaseTrie()
	store.lost = true
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tr := shared.AccountTrie(); tr != nil {
				t.Errorf("derived a trie over a lost store")
			}
			_ = shared.Err()
		}()
	}
	wg.Wait()
	if !errors.Is(shared.Err(), ErrRead) {
		t.Fatalf("Err = %v", shared.Err())
	}
	if got := shared.Commit(); got != want {
		t.Fatalf("the memoized root changed: %s, want %s", got.Short(), want.Short())
	}
}
