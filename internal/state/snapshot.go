package state

import (
	"bytes"
	"fmt"
	"sort"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
	"dcsledger/internal/wire"
)

// Snapshot wire format: a binary, deterministic full-state export, used
// by fast-sync (Section 5.4's bootstrap problem: joining peers should
// not need the whole blockchain) and by WAL checkpoints. Three sections
// — accounts, code, storage — each length-counted and sorted by key, so
// one state has exactly one snapshot encoding: equal states produce
// byte-identical snapshots, and the decoder rejects unsorted or
// duplicated keys along with any trailing bytes.
const (
	// SnapshotCodecVersion tags the encoding; bump on layout change.
	SnapshotCodecVersion = 1
	// maxSnapshotItems bounds each section's claimed element count.
	maxSnapshotItems = 1 << 24
	// maxSnapshotCodeLen bounds one contract blob.
	maxSnapshotCodeLen = 1 << 24
	// maxSnapshotKeyLen bounds one storage slot key.
	maxSnapshotKeyLen = 1 << 16
	// maxSnapshotValLen bounds one storage slot value.
	maxSnapshotValLen = 1 << 24
)

// EncodeSnapshot serializes the complete state, reading its committed
// trie in key order. The result is verifiable:
// DecodeSnapshot(...).Commit() equals this state's Commit(), and equal
// states encode byte-equal. A failed trie read is returned, never
// encoded as an absence.
func (s *State) EncodeSnapshot() ([]byte, error) {
	// One pass over the account leaves fills all three sections: accounts
	// and storage arrive sorted by address, slots by key.
	var accounts, storage wire.Buffer
	var nAccounts, nStorage uint32
	code := make(map[cryptoutil.Hash][]byte)
	err := s.leaves(func(a cryptoutil.Address, lf leaf, tr *mpt.Trie) error {
		nAccounts++
		accounts.Raw(a[:])
		accounts.U64(lf.Balance)
		accounts.U64(lf.Nonce)
		accounts.Raw(lf.Code[:])
		if _, ok := code[lf.Code]; !ok && !lf.Code.IsZero() {
			blob, err := lf.code(tr)
			if err != nil {
				return err
			}
			code[lf.Code] = blob
		}
		st := lf.storage(tr)
		if st == nil {
			return nil
		}
		var slots wire.Buffer
		var nSlots uint32
		err := st.Leaves(func(k, v []byte, _ mpt.Aux) error {
			nSlots++
			slots.String(string(k))
			slots.Blob(v)
			return nil
		})
		nStorage++
		storage.Raw(a[:])
		storage.U32(nSlots)
		storage.Raw(slots.Bytes())
		return err
	})
	if err != nil {
		return nil, err
	}

	var w wire.Buffer
	w.U8(SnapshotCodecVersion)
	w.U32(nAccounts)
	w.Raw(accounts.Bytes())
	hashes := make([]cryptoutil.Hash, 0, len(code))
	for h := range code {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool {
		return bytes.Compare(hashes[i][:], hashes[j][:]) < 0
	})
	w.U32(uint32(len(hashes)))
	for _, h := range hashes {
		w.Raw(h[:])
		w.Blob(code[h])
	}
	w.U32(nStorage)
	w.Raw(storage.Bytes())
	return w.Bytes(), nil
}

// DecodeSnapshot reconstructs a state from EncodeSnapshot output. It
// accepts only the canonical form: sections must be strictly sorted
// with no duplicate keys and no trailing bytes, code must hash to its
// key and be named by an account, storage must belong to an account, so
// a snapshot that decodes successfully re-encodes byte-identically.
func DecodeSnapshot(data []byte) (*State, error) {
	rd := wire.NewReader(data)
	if v := rd.U8(); rd.Err() == nil && v != SnapshotCodecVersion {
		return nil, fmt.Errorf("state: unknown snapshot version %d", v)
	}
	s := New()
	w := s.hot()

	named := make(map[cryptoutil.Hash]struct{}) // code hashes in account records
	n := rd.Count(maxSnapshotItems)
	var prevAddr cryptoutil.Address
	for i := uint32(0); i < n && rd.Err() == nil; i++ {
		var a cryptoutil.Address
		var acc Account
		rd.Raw(a[:])
		acc.Balance = rd.U64()
		acc.Nonce = rd.U64()
		rd.Raw(acc.Code[:])
		if rd.Err() != nil {
			break
		}
		if i > 0 && bytes.Compare(prevAddr[:], a[:]) >= 0 {
			return nil, fmt.Errorf("state: snapshot accounts not strictly sorted")
		}
		prevAddr = a
		w.accounts[a] = acc
		if !acc.Code.IsZero() {
			named[acc.Code] = struct{}{}
		}
	}

	n = rd.Count(maxSnapshotItems)
	var prevHash cryptoutil.Hash
	for i := uint32(0); i < n && rd.Err() == nil; i++ {
		var h cryptoutil.Hash
		rd.Raw(h[:])
		blob := rd.Blob(maxSnapshotCodeLen)
		if rd.Err() != nil {
			break
		}
		if i > 0 && bytes.Compare(prevHash[:], h[:]) >= 0 {
			return nil, fmt.Errorf("state: snapshot code not strictly sorted")
		}
		prevHash = h
		// Code is kept for the accounts that name it, and for nothing else.
		if _, ok := named[h]; !ok || codeHash(blob) != h {
			return nil, fmt.Errorf("state: snapshot code %s is named by no account or fails hash verification", h.Short())
		}
		delete(named, h)
		w.code[h] = blob
	}
	n = rd.Count(maxSnapshotItems)
	var prevStAddr cryptoutil.Address
	for i := uint32(0); i < n && rd.Err() == nil; i++ {
		var a cryptoutil.Address
		rd.Raw(a[:])
		if rd.Err() != nil {
			break
		}
		if i > 0 && bytes.Compare(prevStAddr[:], a[:]) >= 0 {
			return nil, fmt.Errorf("state: snapshot storage not strictly sorted")
		}
		prevStAddr = a
		if _, ok := w.accounts[a]; !ok {
			return nil, fmt.Errorf("state: snapshot storage of %s, which has no account", a.Hex())
		}
		cnt := rd.Count(maxSnapshotItems)
		if cnt == 0 && rd.Err() == nil {
			return nil, fmt.Errorf("state: snapshot storage section empty for %s", a.Hex())
		}
		prevKey := ""
		for j := uint32(0); j < cnt && rd.Err() == nil; j++ {
			k := rd.String(maxSnapshotKeyLen)
			v := rd.Blob(maxSnapshotValLen)
			if rd.Err() != nil {
				break
			}
			if j > 0 && prevKey >= k {
				return nil, fmt.Errorf("state: snapshot slots not strictly sorted")
			}
			prevKey = k
			w.slots[SlotKey{a, k}] = v
		}
	}

	if err := rd.Close(); err != nil {
		return nil, fmt.Errorf("state: decode snapshot: %w", err)
	}
	if len(named) > 0 {
		return nil, fmt.Errorf("state: snapshot lacks %d code blobs its accounts name", len(named))
	}
	return s, nil
}
