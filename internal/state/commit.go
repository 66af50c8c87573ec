package state

import (
	"encoding/binary"
	"maps"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
)

// memo is what a layer remembers about the commitment of its current
// contents. Every write funnel (setAccount, SetStorage, DeleteStorage,
// absorb) drops it, so a memo that exists is exact. A memo is never
// modified once built: releasing or adopting a trie swaps in a new one.
type memo struct {
	root cryptoutil.Hash
	// trie is the account trie with this root: in memory, or loaded over
	// a node store (mpt.Load), in which case only the nodes written since
	// the load are held here. Nil once released.
	trie *mpt.Trie
	// storage holds the in-memory storage trie of every contract that
	// has live slots. Memos whose span wrote no slot share one map, so it
	// is cloned before a change. Nil once released.
	storage map[cryptoutil.Address]*mpt.Trie
}

// Commit returns the authenticated root of the entire state: a Merkle
// Patricia trie over accounts, each account's entry committing its
// balance, nonce, code hash, and a nested storage-trie root.
//
// The root is memoized. The first Commit after a write derives the trie
// from the nearest ancestor layer that still holds one, rewriting only
// the accounts and slots written in between, so a block's commit costs
// O(written × trie depth) however many accounts exist. Without such an
// ancestor it walks every account, as AccountTrie does.
func (s *State) Commit() cryptoutil.Hash {
	if s.memo == nil {
		s.memo = s.commit()
	}
	return s.memo.root
}

// Trie returns the account trie Commit hashes, deriving it again if it
// was released. The trie is persistent: later writes to the state do
// not change it.
func (s *State) Trie() *mpt.Trie {
	if s.memo == nil || s.memo.trie == nil {
		s.memo = s.commit()
	}
	return s.memo.trie
}

// AdoptTrie replaces the memoized account trie with tr, which must hold
// the same contents: the node flushes a trie to its node store and
// adopts the copy loaded back from the root, so the flushed nodes leave
// memory. A trie with any other root is refused.
func (s *State) AdoptTrie(tr *mpt.Trie) bool {
	if tr.RootHash() != s.Trie().RootHash() {
		return false
	}
	s.memo = &memo{root: s.memo.root, trie: tr, storage: s.memo.storage}
	return true
}

// HoldsTrie reports whether the state holds the tries of its current
// contents (committed, not released, not written since).
func (s *State) HoldsTrie() bool { return s.memo != nil && s.memo.trie != nil }

// ReleaseTrie drops the memoized tries and keeps the 32-byte root.
// Commit stays O(1); a layer committed on top of this one finds its
// trie further down the chain or walks every account.
func (s *State) ReleaseTrie() {
	if s.memo != nil && s.memo.trie != nil {
		s.memo = &memo{root: s.memo.root}
	}
}

// commit builds the memo for the current contents.
func (s *State) commit() *memo {
	base := s.parent
	for base != nil && (base.memo == nil || base.memo.trie == nil) {
		base = base.parent
	}
	if base != nil {
		// An error means a node of a store-backed ancestor trie is gone
		// (pruned, or the directory was damaged). The flat maps hold
		// everything needed to build the trie without it.
		if m, err := s.commitOnto(base); err == nil {
			return m
		}
	}
	storage := make(map[cryptoutil.Address]*mpt.Trie)
	for _, addr := range s.storageAddrs() {
		if tr := s.storageTrie(addr); tr.Len() > 0 {
			storage[addr] = tr
		}
	}
	tr := mpt.New()
	s.forEachAccount(func(addr cryptoutil.Address, acc Account) {
		tr = tr.Set(addr[:], encodeLeaf(acc, rootOf(storage[addr])))
	})
	return &memo{root: tr.RootHash(), trie: tr, storage: storage}
}

// commitOnto derives this layer's memo from base, an ancestor holding
// its tries, by applying what the layers in between wrote.
func (s *State) commitOnto(base *State) (*memo, error) {
	// Every written address, with the slot keys written under it.
	dirty := make(map[cryptoutil.Address]map[string]struct{})
	for cur := s; cur != base; cur = cur.parent {
		for a := range cur.accounts {
			if _, ok := dirty[a]; !ok {
				dirty[a] = nil
			}
		}
		for a, m := range cur.storage {
			if dirty[a] == nil {
				dirty[a] = make(map[string]struct{}, len(m))
			}
			for k := range m {
				dirty[a][k] = struct{}{}
			}
		}
		for a, d := range cur.storageDel {
			if dirty[a] == nil {
				dirty[a] = make(map[string]struct{}, len(d))
			}
			for k := range d {
				dirty[a][k] = struct{}{}
			}
		}
	}

	tr, storage := base.memo.trie, base.memo.storage
	cloned := false
	var err error
	// In map order: trie updates commute, the root depends on contents only.
	for addr, ks := range dirty {
		if len(ks) > 0 {
			st := storage[addr]
			if st == nil {
				st = mpt.New()
			}
			for k := range ks {
				if v, ok := s.slot(addr, k); ok {
					st = st.Set([]byte(k), v)
				} else {
					st, _ = st.Delete([]byte(k))
				}
			}
			if !cloned {
				storage, cloned = maps.Clone(storage), true
			}
			if st.Len() == 0 {
				delete(storage, addr)
			} else {
				storage[addr] = st
			}
		}
		if acc, ok := s.account(addr); ok {
			tr, err = tr.TrySet(addr[:], encodeLeaf(acc, rootOf(storage[addr])))
		} else {
			// Slots written under an address that has no account record
			// contribute no leaf.
			tr, _, err = tr.TryDelete(addr[:])
		}
		if err != nil {
			return nil, err
		}
	}
	return &memo{root: tr.RootHash(), trie: tr, storage: storage}, nil
}

// AccountTrie builds the account trie from every live account and slot,
// using nothing memoized. It is the reference Commit is tested against
// (Commit() == AccountTrie().RootHash() whatever the layer history).
func (s *State) AccountTrie() *mpt.Trie {
	tr := mpt.New()
	s.forEachAccount(func(addr cryptoutil.Address, acc Account) {
		tr = tr.Set(addr[:], encodeLeaf(acc, s.storageTrie(addr).RootHash()))
	})
	return tr
}

// AccountLeaf returns the account-trie leaf value for addr — the exact
// bytes Commit stores under addr[:] — and whether addr has an account
// record (addresses with storage but no account record contribute no
// leaf, matching Commit).
func (s *State) AccountLeaf(addr cryptoutil.Address) ([]byte, bool) {
	if m := s.memo; m != nil && m.trie != nil {
		if leaf, ok, err := m.trie.TryGet(addr[:]); err == nil {
			return leaf, ok
		}
	}
	acc, ok := s.account(addr)
	if !ok {
		return nil, false
	}
	return encodeLeaf(acc, s.storageTrie(addr).RootHash()), true
}

// storageTrie builds addr's storage trie from every live slot.
func (s *State) storageTrie(addr cryptoutil.Address) *mpt.Trie {
	tr := mpt.New()
	s.forEachStorage(addr, func(k string, v []byte) {
		tr = tr.Set([]byte(k), v)
	})
	return tr
}

// rootOf is the storage root of a contract whose storage trie is tr; a
// contract without live slots has none.
func rootOf(tr *mpt.Trie) cryptoutil.Hash {
	if tr == nil {
		return mpt.EmptyRoot
	}
	return tr.RootHash()
}

// encodeLeaf renders one account-trie leaf: balance, nonce, code hash,
// storage root.
func encodeLeaf(acc Account, storageRoot cryptoutil.Hash) []byte {
	buf := make([]byte, 0, 16+2*cryptoutil.HashSize)
	buf = binary.BigEndian.AppendUint64(buf, acc.Balance)
	buf = binary.BigEndian.AppendUint64(buf, acc.Nonce)
	buf = append(buf, acc.Code[:]...)
	return append(buf, storageRoot[:]...)
}
