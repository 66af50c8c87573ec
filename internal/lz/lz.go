// Package lz is the byte codec the WAL stores block records through: a
// greedy LZ77 with no entropy stage, small enough to own and cheap
// enough to run on every journaled block. It exists for what the
// canonical block encoding spells at length — fixed-width integers that
// are nearly all zeros, a sender's address and key again whenever the
// sender recurs — and leaves signatures and hashes, which nothing
// compresses, as literals. See docs/PERSISTENCE.md for the layout.
//
// An encoding is the input's length, then elements until that many bytes
// have been produced:
//
//	uvarint rawLen
//	00nnnnnn <n+1 bytes>          literal, 1..64 bytes
//	01nnnooo oooooooo             short copy, 4+n (4..11) bytes from o (1..2047) back
//	1nnnnnnn oooooooo oooooooo    long copy, 4+n (4..131) bytes from o (1..65535, little-endian) back
//
// A copy may overlap its own output (offset 1 repeats the last byte).
// The encoder is deterministic: the same input gives the same bytes.
package lz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrCorrupt is what Decode returns for input no Encode call produced.
var ErrCorrupt = errors.New("lz: corrupt input")

const (
	minMatch   = 4       // the hashed group, and the shortest copy
	maxLiteral = 64      // one literal element
	maxShort   = 11      // one short copy
	maxLong    = 131     // one long copy
	shortReach = 1 << 11 // offsets below this fit a short copy; a long one reaches 65535
	tableBits  = 13      // each of the two tables
)

// Encoder holds the two hash tables encoding needs, 32 KiB together,
// which every Encode call clears and reuses. The zero value is ready; an
// Encoder is not safe for concurrent use.
type Encoder struct {
	// long and short map the hash of an 8-byte and of a 4-byte group to
	// the position it was last looked up at, modulo the window: all a
	// copy's offset needs.
	long, short [1 << tableBits]uint16
}

func hash4(v uint32) uint32 { return v * 2654435761 >> (32 - tableBits) }
func hash8(v uint64) uint64 { return v * 0x9E3779B185EBCA87 >> (64 - tableBits) }

// Encode appends the encoding of src to dst and returns the extended
// slice. Incompressible input grows by one byte in 64 and the length.
//
// The parse is greedy and looks at one candidate per table, the 8-byte
// one first: in a run of records of one layout, eight bytes seen before
// are mostly the same field of an earlier record, and the match runs on
// through the fields after it, where four zeros would only find the
// nearest four zeros. Positions inside a match are not indexed, which
// keeps the tables pointing at where earlier matches began. A table
// entry never looked up reads as a position like any other; what it
// points at is compared before it is believed.
func (e *Encoder) Encode(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	clear(e.long[:])
	clear(e.short[:])
	lit := 0 // src[lit:i] waits to go out as literals
	for i := 0; i+minMatch <= len(src); {
		offset := 0
		if i+8 <= len(src) {
			v := binary.LittleEndian.Uint64(src[i:])
			h := hash8(v)
			if o := int(uint16(i) - e.long[h]); o != 0 && o <= i && binary.LittleEndian.Uint64(src[i-o:]) == v {
				offset = o
			}
			e.long[h] = uint16(i)
		}
		v := binary.LittleEndian.Uint32(src[i:])
		h := hash4(v)
		if o := int(uint16(i) - e.short[h]); offset == 0 && o != 0 && o <= i && binary.LittleEndian.Uint32(src[i-o:]) == v {
			offset = o
		}
		e.short[h] = uint16(i)
		if offset == 0 {
			i++
			continue
		}
		n := minMatch
		for i+n < len(src) && src[i+n-offset] == src[i+n] {
			n++
		}
		dst = appendLiterals(dst, src[lit:i])
		dst = appendCopy(dst, offset, n)
		i += n
		lit = i
	}
	return appendLiterals(dst, src[lit:])
}

func appendLiterals(dst, p []byte) []byte {
	for len(p) > 0 {
		n := min(len(p), maxLiteral)
		dst = append(dst, byte(n-1))
		dst = append(dst, p[:n]...)
		p = p[n:]
	}
	return dst
}

// appendCopy emits a match of n >= minMatch bytes at offset as one or
// more copy elements, none shorter than minMatch.
func appendCopy(dst []byte, offset, n int) []byte {
	for n > 0 {
		if n <= maxShort && offset < shortReach {
			return append(dst, 0x40|byte(n-minMatch)<<3|byte(offset>>8), byte(offset))
		}
		c := min(n, maxLong)
		if rest := n - c; rest > 0 && rest < minMatch {
			c = n - minMatch
		}
		dst = append(dst, 0x80|byte(c-minMatch), byte(offset), byte(offset>>8))
		n -= c
	}
	return dst
}

// Decode inflates the first n bytes of what c encodes — all of it when
// it encodes fewer — into dst[:0], growing it as needed. It refuses,
// before allocating, a declared length above limit; an offset of zero or
// beyond what has been produced; an element that overruns the declared
// length; input that ends early; and, once everything is inflated, input
// that goes on. A prefix (n below the declared length) vouches for the
// elements it read and no others.
func Decode(dst, c []byte, n, limit int) ([]byte, error) {
	declared, k := binary.Uvarint(c)
	if k <= 0 || declared > uint64(limit) {
		return nil, fmt.Errorf("%w: declared length", ErrCorrupt)
	}
	total := int(declared)
	n = min(n, total)
	c = c[k:]
	out := slices.Grow(dst[:0], n)
	for len(out) < n {
		if len(c) == 0 {
			return nil, fmt.Errorf("%w: ends at %d of %d bytes", ErrCorrupt, len(out), total)
		}
		// Nothing has been clipped to n yet, so len(out) is also how far
		// into the whole the elements read so far reach.
		tag, at := c[0], len(out)
		var size, length, offset int
		switch {
		case tag < 0x40:
			length = int(tag) + 1
			size = 1 + length
		case tag < 0x80:
			length, size = minMatch+int(tag>>3&7), 2
		default:
			length, size = minMatch+int(tag&0x7f), 3
		}
		if len(c) < size {
			return nil, fmt.Errorf("%w: torn element at %d", ErrCorrupt, at)
		}
		if length > total-at {
			return nil, fmt.Errorf("%w: element overruns the declared length %d", ErrCorrupt, total)
		}
		length = min(length, n-at)
		if tag < 0x40 {
			out = append(out, c[1:1+length]...)
			c = c[size:]
			continue
		}
		if tag < 0x80 {
			offset = int(tag&7)<<8 | int(c[1])
		} else {
			offset = int(c[1]) | int(c[2])<<8
		}
		if offset == 0 || offset > at {
			return nil, fmt.Errorf("%w: offset %d at %d", ErrCorrupt, offset, at)
		}
		if offset >= length {
			out = append(out, out[at-offset:at-offset+length]...)
		} else {
			// The copy reads what it has just written: byte by byte.
			for i := at - offset; length > 0; i, length = i+1, length-1 {
				out = append(out, out[i])
			}
		}
		c = c[size:]
	}
	if n == total && len(c) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last element", ErrCorrupt, len(c))
	}
	return out, nil
}
