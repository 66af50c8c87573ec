package nodestore

import (
	"encoding/binary"
	"math/bits"

	"dcsledger/internal/cryptoutil"
)

// loc says where a record lies, packed into one word so that an index
// entry is 16 bytes: legacy (1 bit: the record is in a frame of the
// unwindowed form, its payload the node itself) | segment (23 bits) |
// offset of the record's key in the segment file (28 bits) | payload
// length (12 bits, saturating: a longer payload's length is read from the
// record itself). A valid loc is never zero, since segments count from 1.
type loc uint64

const (
	locLenBits = 12
	locOffBits = 28
	locSegBits = 23
	locMaxLen  = 1<<locLenBits - 1
	maxOffset  = 1<<locOffBits - 1
	maxSegment = 1<<locSegBits - 1
	locLegacy  = loc(1) << (locSegBits + locOffBits + locLenBits)
)

func makeLoc(seg uint64, off int64, payloadLen int) loc {
	return loc(seg<<(locOffBits+locLenBits) | uint64(off)<<locLenBits | uint64(min(payloadLen, locMaxLen)))
}

func (l loc) seg() uint64  { return uint64(l) >> (locOffBits + locLenBits) & maxSegment }
func (l loc) off() int64   { return int64(l >> locLenBits & maxOffset) }
func (l loc) len() int     { return int(l & locMaxLen) }
func (l loc) legacy() bool { return l&locLegacy != 0 }

// prefix is the part of a hash the index keys on.
func prefix(h cryptoutil.Hash) uint64 { return binary.BigEndian.Uint64(h[:8]) }

// index maps a node hash to the place of its record without holding the
// hash: an open-addressing table keyed by the hash's first 64 bits, and
// a map by full hash for the rare record whose prefix another record
// took first (a hash is in one or the other). A table hit therefore
// names a record that may belong to another hash; the store compares the
// key on disk before it believes one (see Store.lookupLocked,
// Store.read). The table grows by half at four fifths full, so it costs
// between 20 and 30 bytes a record.
type index struct {
	slots []slot // linear probing from home(key); loc 0 marks a free slot
	used  int
	over  map[cryptoutil.Hash]loc
}

type slot struct {
	key uint64
	loc loc
}

const minSlots = 1 << 10

func newIndex() *index {
	return &index{slots: make([]slot, minSlots), over: make(map[cryptoutil.Hash]loc)}
}

// len returns the number of records indexed.
func (ix *index) len() int { return ix.used + len(ix.over) }

// home maps a key to its first slot, order-preserving (keys are hash
// bits, uniform already), which keeps a rebuild's writes sequential.
func (ix *index) home(key uint64) int {
	hi, _ := bits.Mul64(key, uint64(len(ix.slots)))
	return int(hi)
}

func (ix *index) next(i int) int {
	if i++; i == len(ix.slots) {
		return 0
	}
	return i
}

// find returns the slot holding key, or -1.
func (ix *index) find(key uint64) int {
	for i := ix.home(key); ix.slots[i].loc != 0; i = ix.next(i) {
		if ix.slots[i].key == key {
			return i
		}
	}
	return -1
}

// lookup returns the one place a record of h can lie, zero for none, and
// whether it is known to be h's: an overflow entry is, a table entry may
// belong to another hash with h's prefix.
func (ix *index) lookup(h cryptoutil.Hash) (l loc, exact bool) {
	if l, ok := ix.over[h]; ok { // an empty map in all but adversarial stores
		return l, true
	}
	if i := ix.find(prefix(h)); i >= 0 {
		return ix.slots[i].loc, false
	}
	return 0, false
}

// add indexes a record of h, which must not be indexed yet: under its
// prefix when that is free, else in the overflow.
func (ix *index) add(h cryptoutil.Hash, l loc) {
	key := prefix(h)
	if ix.find(key) >= 0 {
		ix.over[h] = l
		return
	}
	if (ix.used+1)*5 > len(ix.slots)*4 {
		ix.grow()
	}
	ix.insert(slot{key, l})
	ix.used++
}

func (ix *index) insert(s slot) {
	i := ix.home(s.key)
	for ix.slots[i].loc != 0 {
		i = ix.next(i)
	}
	ix.slots[i] = s
}

func (ix *index) grow() {
	old := ix.slots
	ix.slots = make([]slot, len(old)+len(old)/2)
	for _, s := range old {
		if s.loc != 0 {
			ix.insert(s)
		}
	}
}

// holds reports whether the index places h's record at l, where a record
// of h does lie.
func (ix *index) holds(h cryptoutil.Hash, l loc) bool {
	at, _ := ix.lookup(h)
	return at == l
}

// move re-points the entry of h, which must be indexed, at to.
func (ix *index) move(h cryptoutil.Hash, to loc) {
	if _, ok := ix.over[h]; ok {
		ix.over[h] = to
		return
	}
	ix.slots[ix.find(prefix(h))].loc = to
}

// remove drops the entry of h, which must be indexed. A table slot is
// freed by shifting the run behind it back, so probing never meets a gap
// between a key's home and its slot.
func (ix *index) remove(h cryptoutil.Hash) {
	if _, ok := ix.over[h]; ok {
		delete(ix.over, h)
		return
	}
	i := ix.find(prefix(h))
	ix.used--
	for j := ix.next(i); ix.slots[j].loc != 0; j = ix.next(j) {
		// slots[j] moves into the hole at i unless its home lies
		// cyclically within (i, j]: probing from there never passes i.
		k := ix.home(ix.slots[j].key)
		if i < j && i < k && k <= j || j < i && (i < k || k <= j) {
			continue
		}
		ix.slots[i] = ix.slots[j]
		i = j
	}
	ix.slots[i] = slot{}
}
