package state

import (
	"bytes"
	"slices"
	"strings"

	"dcsledger/internal/cryptoutil"
)

// writes is what one diff layer wrote, in one of two forms. A hot layer's
// accounts and slots are maps, written in place by the layer's one writer
// and read by execution; a compacted layer's are cold: one sorted,
// immutable form about a third the size (Compact), and the maps are gone.
// The code map is the same in both.
type writes struct {
	accounts map[cryptoutil.Address]Account
	slots    map[SlotKey][]byte
	code     map[cryptoutil.Hash][]byte
	cold     *cold // non-nil once compacted
}

func newWrites() *writes {
	return &writes{
		accounts: make(map[cryptoutil.Address]Account),
		code:     make(map[cryptoutil.Hash][]byte),
		slots:    make(map[SlotKey][]byte),
	}
}

// cold is a compacted layer's account and slot writes, sorted and
// searched by binary search, never written.
type cold struct {
	accounts []coldAccount     // by address
	codes    []cryptoutil.Hash // the code hashes of the accounts that have one
	slots    []coldSlot        // by address, then key
}

// coldAccount is an account record in 40 bytes, where a Go map entry of
// one costs 90 to 150: the code hash, which few accounts have, is kept
// beside the entries, and the entry's padding holds where.
type coldAccount struct {
	addr           cryptoutil.Address
	code           uint32 // 1 + the code hash's index in cold.codes; 0 for none
	balance, nonce uint64
}

type coldSlot struct {
	key   SlotKey
	value []byte
}

func cmpAddr(a, b *cryptoutil.Address) int { return bytes.Compare(a[:], b[:]) }

func cmpSlot(a, b *SlotKey) int {
	if c := cmpAddr(&a.Addr, &b.Addr); c != 0 {
		return c
	}
	return strings.Compare(a.Key, b.Key)
}

// Compact freezes the layer for good: its account and slot writes move
// from maps to one sorted, immutable form about a third the size,
// published atomically, so a reader walking the layer meanwhile sees one
// form or the other and every read answers as before. Writing to the
// layer afterwards panics. The node compacts the post-states whose tries
// it released: only a fork deeper than its trie window reads them.
func (s *State) Compact() {
	w := s.w.Load()
	if w.cold != nil {
		return
	}
	c := &cold{
		accounts: make([]coldAccount, 0, len(w.accounts)),
		slots:    make([]coldSlot, 0, len(w.slots)),
	}
	for a, acc := range w.accounts {
		e := coldAccount{addr: a, balance: acc.Balance, nonce: acc.Nonce}
		if !acc.Code.IsZero() {
			c.codes = append(c.codes, acc.Code)
			e.code = uint32(len(c.codes))
		}
		c.accounts = append(c.accounts, e)
	}
	for k, v := range w.slots {
		c.slots = append(c.slots, coldSlot{key: k, value: v})
	}
	slices.SortFunc(c.accounts, func(x, y coldAccount) int { return cmpAddr(&x.addr, &y.addr) })
	slices.SortFunc(c.slots, func(x, y coldSlot) int { return cmpSlot(&x.key, &y.key) })
	s.w.Store(&writes{code: w.code, cold: c})
}

// hot returns the layer's maps for a write; a compacted layer has none.
func (s *State) hot() *writes {
	w := s.w.Load()
	if w.cold != nil {
		panic("state: write to a compacted layer")
	}
	return w
}

// account returns the record the layer wrote for addr, if it wrote one.
func (w *writes) account(addr cryptoutil.Address) (Account, bool) {
	if w.cold == nil {
		acc, ok := w.accounts[addr]
		return acc, ok
	}
	c := w.cold
	i, ok := slices.BinarySearchFunc(c.accounts, addr, func(e coldAccount, a cryptoutil.Address) int { return cmpAddr(&e.addr, &a) })
	if !ok {
		return Account{}, false
	}
	return c.record(&c.accounts[i]), true
}

func (c *cold) record(e *coldAccount) Account {
	acc := Account{Balance: e.balance, Nonce: e.nonce}
	if e.code > 0 {
		acc.Code = c.codes[e.code-1]
	}
	return acc
}

// slot returns what the layer wrote to slot k, if it wrote it.
func (w *writes) slot(k SlotKey) ([]byte, bool) {
	if w.cold == nil {
		v, ok := w.slots[k]
		return v, ok
	}
	i, ok := slices.BinarySearchFunc(w.cold.slots, k, func(e coldSlot, k SlotKey) int { return cmpSlot(&e.key, &k) })
	if !ok {
		return nil, false
	}
	return w.cold.slots[i].value, true
}

// eachAccount calls fn with every account record the layer wrote, in no
// particular order: its callers fill a map or a set.
func (w *writes) eachAccount(fn func(cryptoutil.Address, Account)) {
	if w.cold == nil {
		for a, acc := range w.accounts {
			fn(a, acc) //dcslint:ignore determinism every caller fills a map or a set: commit's dirty set, DirtyAddresses (sorted after), Absorb
		}
		return
	}
	for i := range w.cold.accounts {
		e := &w.cold.accounts[i]
		fn(e.addr, w.cold.record(e))
	}
}

// eachSlot calls fn with every slot the layer wrote, in no particular
// order (see eachAccount).
func (w *writes) eachSlot(fn func(SlotKey, []byte)) {
	if w.cold == nil {
		for k, v := range w.slots {
			fn(k, v) //dcslint:ignore determinism every caller fills a map or a set: commit's dirty set, DirtyAddresses (sorted after), Absorb
		}
		return
	}
	for _, e := range w.cold.slots {
		fn(e.key, e.value)
	}
}
