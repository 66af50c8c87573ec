package state

import (
	"encoding/binary"
	"fmt"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
)

// memo is what a layer remembers about the commitment of its current
// contents. Every write funnel (setAccount, writeSlot, Absorb) drops it,
// so a memo that exists is exact. A memo is never modified once built:
// releasing or adopting a trie swaps in a new one.
type memo struct {
	root cryptoutil.Hash
	// trie is the account trie with this root: in memory, or loaded over
	// a node store (mpt.Load), in which case only the nodes written since
	// the load are held here. Nil once released. It is also what reads
	// through this layer fall through to (State.under).
	trie *mpt.Trie
}

// contract is the in-memory companion of a contract's account leaf
// (mpt.Aux): what the leaf's storage root and code hash name. Leaves
// built in memory carry it; a leaf read back from a node store does not,
// and its storage trie and code are loaded from the store by hash.
type contract struct {
	storage *mpt.Trie // nil without live slots
	code    []byte    // nil for none, or when only the store has it
}

// Commit writes the storage trie and the code to sink, ahead of the leaf
// that names them (mpt.Trie.Commit).
func (c *contract) Commit(sink mpt.NodeSink) error {
	if c.storage != nil {
		if _, err := c.storage.Commit(sink); err != nil {
			return err
		}
	}
	if h := codeHash(c.code); c.code != nil && !sink.Has(h) {
		return sink.Put(h, c.code)
	}
	return nil
}

// leaf is one decoded account-trie leaf.
type leaf struct {
	Account
	storageRoot cryptoutil.Hash
	aux         *contract
}

// readLeaf reads addr's leaf from tr (nil = empty trie). Without one
// it returns the leaf of an account with no code and no slots.
func readLeaf(tr *mpt.Trie, addr cryptoutil.Address) (leaf, bool, error) {
	none := leaf{storageRoot: mpt.EmptyRoot}
	if tr == nil {
		return none, false, nil
	}
	v, aux, ok, err := tr.TryGetAux(addr[:])
	if err != nil || !ok {
		return none, false, err
	}
	lf, err := decodeLeaf(v)
	if err != nil {
		return none, false, err
	}
	lf.aux, _ = aux.(*contract)
	return lf, true, nil
}

// storage returns the account's storage trie, nil if it has no slots.
// tr is the account trie the leaf was read from.
func (lf leaf) storage(tr *mpt.Trie) *mpt.Trie {
	switch {
	case lf.storageRoot == mpt.EmptyRoot:
		return nil
	case lf.aux != nil && lf.aux.storage != nil:
		return lf.aux.storage
	}
	return mpt.Load(lf.storageRoot, 0, tr.Source())
}

// code returns the account's code. tr is the account trie the leaf was
// read from.
func (lf leaf) code(tr *mpt.Trie) ([]byte, error) {
	switch {
	case lf.Code.IsZero():
		return nil, nil
	case lf.aux != nil && lf.aux.code != nil:
		return lf.aux.code, nil
	case tr.Source() == nil:
		return nil, fmt.Errorf("%w: code %s", mpt.ErrMissingNode, lf.Code.Short())
	}
	v, err := tr.Source().Node(lf.Code, func(h cryptoutil.Hash, enc []byte) (any, int, error) {
		if codeHash(enc) != h {
			return nil, 0, fmt.Errorf("state: code %s fails hash verification", h.Short())
		}
		return append([]byte(nil), enc...), len(enc), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

// Commit returns the authenticated root of the entire state: a Merkle
// Patricia trie over accounts, each account's entry committing its
// balance, nonce, code hash, and a nested storage-trie root.
//
// The root is memoized. The first Commit after a write derives the trie
// from the nearest layer below that holds one (or from the trie the
// chain ends on), rewriting only the accounts and slots written above
// it, so a block's commit costs O(written × trie depth) however many
// accounts exist. If a read it needs fails, the zero hash is returned,
// Err says why, and the next call tries again.
func (s *State) Commit() cryptoutil.Hash {
	if m := s.memo.Load(); m != nil {
		return m.root
	}
	if tr := s.AccountTrie(); tr != nil {
		return tr.RootHash()
	}
	return cryptoutil.ZeroHash
}

// AccountTrie returns the account trie Commit hashes, deriving it again
// if it was released; nil if that fails (see Err; the next call tries
// again). The trie is persistent: later writes to the state do not
// change it.
func (s *State) AccountTrie() *mpt.Trie {
	m := s.memo.Load()
	if m != nil && m.trie != nil {
		return m.trie
	}
	if m == nil && s.Err() != nil {
		return nil // what was written here was computed from a failed read
	}
	tr, err := s.commit()
	if err != nil {
		s.fail(err)
		return nil
	}
	s.memo.Store(&memo{root: tr.RootHash(), trie: tr})
	return tr
}

// AdoptTrie replaces the memoized account trie with tr, which must hold
// the same contents: the node flushes a trie to its node store and
// adopts the copy loaded back from the root, so the flushed nodes leave
// memory. A trie with any other root is refused.
func (s *State) AdoptTrie(tr *mpt.Trie) bool {
	if tr.RootHash() != s.Commit() {
		return false
	}
	s.memo.Store(&memo{root: tr.RootHash(), trie: tr})
	return true
}

// Stored reports whether the whole committed state lies in a node store
// (the trie was flushed and adopted back, or the state was loaded by its
// root): the root is then all it takes to open it again.
func (s *State) Stored() bool {
	m := s.memo.Load()
	return m != nil && m.trie != nil && m.trie.Stored()
}

// ReleaseTrie drops the memoized trie and keeps the 32-byte root.
// Commit stays O(1); reads through this layer, and the commit of a
// layer on top of it, go further down the chain.
func (s *State) ReleaseTrie() {
	if m := s.memo.Load(); m != nil && m.trie != nil {
		s.memo.Store(&memo{root: m.root})
	}
}

// commit derives the account trie of the current contents from the
// trie under the layers that were written since, by applying what they
// wrote.
func (s *State) commit() (*mpt.Trie, error) {
	// Every written address, with the slot keys written under it (a key
	// written in two layers is listed twice and applied twice, the same).
	dirty := make(map[cryptoutil.Address][]string)
	var base *mpt.Trie
	for cur := s; ; cur = cur.parent {
		if m := cur.memo.Load(); cur != s && m != nil && m.trie != nil {
			base = m.trie
			break
		}
		w := cur.w.Load()
		w.eachAccount(func(a cryptoutil.Address, _ Account) {
			if _, ok := dirty[a]; !ok {
				dirty[a] = nil
			}
		})
		w.eachSlot(func(k SlotKey, _ []byte) { dirty[k.Addr] = append(dirty[k.Addr], k.Key) })
		if cur.parent == nil {
			base = cur.base
			break
		}
	}
	if base == nil {
		base = mpt.New()
	}

	tr := base
	// In map order: trie updates commute, the root depends on contents only.
	for addr, keys := range dirty {
		old, _, err := readLeaf(base, addr)
		if err != nil {
			return nil, err
		}
		acc, ok, err := s.account(addr)
		if err != nil {
			return nil, err
		}
		if !ok {
			// Slots written under an address that has no account record
			// contribute no leaf (and base has none: records are never
			// deleted).
			continue
		}
		c := contract{storage: old.storage(base)}
		if len(keys) > 0 && c.storage == nil {
			c.storage = mpt.New()
		}
		for _, k := range keys {
			v, _ := s.slot(SlotKey{addr, k}) // a written slot is answered by a layer
			if c.storage, err = c.storage.TrySet([]byte(k), v); err != nil {
				return nil, err
			}
		}
		root := mpt.EmptyRoot
		if c.storage != nil {
			root = c.storage.RootHash()
		}
		// Code is set once: what a layer stored, else what the leaf had.
		if c.code, _ = s.layerCode(acc.Code); c.code == nil && old.aux != nil {
			c.code = old.aux.code
		}
		var aux mpt.Aux
		if c.storage != nil || c.code != nil {
			aux = &c
		}
		if tr, err = tr.TrySetAux(addr[:], encodeLeaf(acc, root), aux); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// leaves visits every account leaf of the committed state in address
// order, with the account trie it was read from.
func (s *State) leaves(fn func(cryptoutil.Address, leaf, *mpt.Trie) error) error {
	tr := s.AccountTrie()
	if tr == nil {
		return s.Err()
	}
	return tr.Leaves(func(k, v []byte, aux mpt.Aux) error {
		lf, err := decodeLeaf(v)
		if err != nil {
			return err
		}
		lf.aux, _ = aux.(*contract)
		var addr cryptoutil.Address
		copy(addr[:], k)
		return fn(addr, lf, tr)
	})
}

// AccountLeaf returns the account-trie leaf value for addr — the exact
// bytes Commit stores under addr[:] — and whether addr has an account
// record (addresses with storage but no account record contribute no
// leaf, matching Commit).
func (s *State) AccountLeaf(addr cryptoutil.Address) ([]byte, bool) {
	tr := s.AccountTrie()
	if tr == nil {
		return nil, false
	}
	v, ok, err := tr.TryGet(addr[:])
	s.fail(err)
	return v, ok && err == nil
}

const leafLen = 16 + 2*cryptoutil.HashSize

// encodeLeaf renders one account-trie leaf: balance, nonce, code hash,
// storage root.
func encodeLeaf(acc Account, storageRoot cryptoutil.Hash) []byte {
	buf := make([]byte, 0, leafLen)
	buf = binary.BigEndian.AppendUint64(buf, acc.Balance)
	buf = binary.BigEndian.AppendUint64(buf, acc.Nonce)
	buf = append(buf, acc.Code[:]...)
	return append(buf, storageRoot[:]...)
}

// LeafRefs returns what an account-trie leaf value names beside the
// account itself: the root of its storage trie (mpt.EmptyRoot for none)
// and the hash of its code (zero for none). A sweep of a node store
// follows them to keep a state whole.
func LeafRefs(v []byte) (storageRoot, code cryptoutil.Hash, err error) {
	lf, err := decodeLeaf(v)
	return lf.storageRoot, lf.Code, err
}

// decodeLeaf is the inverse of encodeLeaf.
func decodeLeaf(v []byte) (leaf, error) {
	if len(v) != leafLen {
		return leaf{}, fmt.Errorf("state: account leaf of %d bytes", len(v))
	}
	var lf leaf
	lf.Balance = binary.BigEndian.Uint64(v)
	lf.Nonce = binary.BigEndian.Uint64(v[8:])
	copy(lf.Code[:], v[16:])
	copy(lf.storageRoot[:], v[16+cryptoutil.HashSize:])
	return lf, nil
}
