// Package lz is the byte codec the WAL stores block records through, and
// the node store its trie node records: a greedy LZ77 with no entropy
// stage, small enough to own and cheap enough to run on every journaled
// block and every flushed node. It exists for what the canonical block
// encoding spells at length — fixed-width integers that are nearly all
// zeros, a sender's address and key again whenever the sender recurs —
// and for what trie nodes repeat — an empty account's constant code hash
// and storage root, a branch's child hashes that are the keys of the
// records just before it — and leaves signatures and fresh hashes, which
// nothing compresses, as literals. See docs/PERSISTENCE.md for the
// layouts.
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
//
// An encoding may also be one input of a stream (Encoder.Next): its
// copies then reach back past its own start into the window, the inputs
// encoded before it since the stream's Reset, and the decoder is handed
// that window (AppendDecode). The element format is the same; only where
// a copy may reach changes. Next can keep a prefix of its input, a
// block's header, from copying out of the window, so that prefix
// inflates without one. Extend puts bytes in the window that are not
// encoded at all, a record's key the reader has anyway.
//
// A Chain (chain.go) is the one record window both stores keep on such
// streams, and its rule: the writer's backs, the scan's check of them, and
// inflation in order, a damaged record failing the rest of its window.
// Each store bounds its windows its own way, in records and in bytes: the
// node store at WindowRecords records and a few KiB, the journal at 128
// records and twice what a copy reaches.
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
	shortReach = 1 << 11 // offsets below this fit a short copy; a long one reaches Window
	tableBits  = 13      // each of the two tables
)

// Window is how far back a copy reaches: 65535 bytes, the largest offset
// a long copy holds.
const Window = 1<<16 - 1

// MaxEncodedLen is the longest encoding of n bytes: the length, and one
// literal tag for every 64 bytes.
func MaxEncodedLen(n int) int {
	return binary.MaxVarintLen64 + n + (n+maxLiteral-1)/maxLiteral
}

// Trim drops from the front of win what no copy can reach any longer,
// once that is more than Window bytes, and returns the rest moved to the
// front of the same array. A window that is extended input after input
// and trimmed after each stays under twice Window and one input.
func Trim(win []byte) []byte {
	if len(win) <= 2*Window {
		return win
	}
	return append(win[:0], win[len(win)-Window:]...)
}

// Encoder holds the two hash tables encoding needs, 32 KiB together, and
// the window of a stream (Next). The zero value is ready; an Encoder is
// not safe for concurrent use.
type Encoder struct {
	// long and short map the hash of an 8-byte and of a 4-byte group to
	// the stream position it was last looked up at, modulo 2^16: all a
	// copy's offset needs.
	long, short [1 << tableBits]uint16
	// win is the stream's inputs since Reset, the last Window bytes of
	// them at least, and pos the stream position of win[0].
	win []byte
	pos int
}

func hash4(v uint32) uint32 { return v * 2654435761 >> (32 - tableBits) }
func hash8(v uint64) uint64 { return v * 0x9E3779B185EBCA87 >> (64 - tableBits) }

// Encode appends the encoding of src to dst, with no window, and returns
// the extended slice. Incompressible input grows by one byte in 64 and
// the length. It resets the stream.
func (e *Encoder) Encode(dst, src []byte) []byte {
	e.Reset()
	return e.encode(binary.AppendUvarint(dst, uint64(len(src))), src, 0, 0)
}

// Reset starts a new stream: the next input has an empty window, and
// nothing encoded before shows in what the encoder produces after.
func (e *Encoder) Reset() {
	clear(e.long[:])
	clear(e.short[:])
	e.win, e.pos = e.win[:0], 0
}

// Window returns what the stream's next input may copy from. Append the
// input to it and pass the result to Next: the input then lies in the
// encoder's own buffer, and needs no copy of its own.
func (e *Encoder) Window() []byte { return e.win }

// Extend adds in[len(Window()):] to the window without encoding it: the
// stream's next input may copy from those bytes, so the decoder must be
// handed them in its window too. It emits nothing. Like Next, it takes in,
// less what no copy can reach any longer, as the window, and hashes the
// new bytes into the tables as the encoder would have.
func (e *Encoder) Extend(in []byte) {
	for i := len(e.win); i+minMatch <= len(in); i++ {
		p := uint16(e.pos + i)
		if i+8 <= len(in) {
			e.long[hash8(binary.LittleEndian.Uint64(in[i:]))] = p
		}
		e.short[hash4(binary.LittleEndian.Uint32(in[i:]))] = p
	}
	e.win = Trim(in)
	e.pos += len(in) - len(e.win)
}

// Next appends to dst the encoding of the stream's next input,
// in[len(Window()):], whose copies may reach back into the window, and
// returns the extended slice. The elements that produce the input's first
// guard bytes copy from the input alone, so Decode inflates that prefix
// without the window. in, less what no copy can reach any longer, is the
// next input's window; the hash tables carry over, so nothing of the
// window is hashed twice.
func (e *Encoder) Next(dst, in []byte, guard int) []byte {
	start := len(e.win)
	dst = e.encode(binary.AppendUvarint(dst, uint64(len(in)-start)), in, start, guard)
	e.win = Trim(in)
	e.pos += len(in) - len(e.win)
	return dst
}

// encode appends the elements of buf[start:] to dst. A copy may start as
// far back as buf[0], except that one at fewer than guard bytes into the
// input starts inside it.
//
// The parse is greedy and looks at one candidate per table, the 8-byte
// one first: in a run of records of one layout, eight bytes seen before
// are mostly the same field of an earlier record, and the match runs on
// through the fields after it, where four zeros would only find the
// nearest four zeros. Positions inside a match are not indexed, which
// keeps the tables pointing at where earlier matches began. A table
// entry never looked up, or left from an input the window has dropped,
// reads as a position like any other; what it points at is compared
// before it is believed.
func (e *Encoder) encode(dst, buf []byte, start, guard int) []byte {
	lit := start // buf[lit:i] waits to go out as literals
	for i := start; i+minMatch <= len(buf); {
		p, reach := uint16(e.pos+i), i
		if i-start < guard {
			reach = i - start
		}
		offset := 0
		if i+8 <= len(buf) {
			v := binary.LittleEndian.Uint64(buf[i:])
			h := hash8(v)
			if o := int(p - e.long[h]); o != 0 && o <= reach && binary.LittleEndian.Uint64(buf[i-o:]) == v {
				offset = o
			}
			e.long[h] = p
		}
		v := binary.LittleEndian.Uint32(buf[i:])
		h := hash4(v)
		if o := int(p - e.short[h]); offset == 0 && o != 0 && o <= reach && binary.LittleEndian.Uint32(buf[i-o:]) == v {
			offset = o
		}
		e.short[h] = p
		if offset == 0 {
			i++
			continue
		}
		n := minMatch
		for i+n < len(buf) && buf[i+n-offset] == buf[i+n] {
			n++
		}
		dst = appendLiterals(dst, buf[lit:i])
		dst = appendCopy(dst, offset, n)
		i += n
		lit = i
	}
	return appendLiterals(dst, buf[lit:])
}

// element returns the size of the element tag opens and how many bytes
// it produces.
func element(tag byte) (size, length int) {
	switch {
	case tag < 0x40:
		return 2 + int(tag), 1 + int(tag)
	case tag < 0x80:
		return 2, minMatch + int(tag>>3&7)
	}
	return 3, minMatch + int(tag&0x7f)
}

// Cut splits c into the encoding at its front and the bytes after it, by
// the lengths its elements declare, inflating nothing: a record may carry
// bytes behind its encoding that no window holds. ok is false when the
// declared length is above limit or c ends before the elements produce
// it. Whether the encoding inflates is AppendDecode's to say.
func Cut(c []byte, limit int) (enc, rest []byte, ok bool) {
	total, k := binary.Uvarint(c)
	if k <= 0 || total > uint64(limit) {
		return nil, nil, false
	}
	for total > 0 && k < len(c) {
		size, length := element(c[k])
		if uint64(length) > total {
			return nil, nil, false
		}
		k, total = k+size, total-uint64(length)
	}
	if total > 0 || k > len(c) {
		return nil, nil, false
	}
	return c[:k], c[k:], true
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
// it encodes fewer — into dst[:0], growing it as needed, with no window.
// It refuses, before allocating, a declared length above limit; an offset
// of zero or beyond what has been produced; an element that overruns the
// declared length; input that ends early; and, once everything is
// inflated, input that goes on. A prefix (n below the declared length)
// vouches for the elements it read and no others.
func Decode(dst, c []byte, n, limit int) ([]byte, error) {
	return AppendDecode(dst[:0], c, n, limit)
}

// AppendDecode is Decode into the end of win, whose bytes are the
// window: a copy may reach back into them as well as into what it has
// produced. It returns win extended by the inflated bytes.
func AppendDecode(win, c []byte, n, limit int) ([]byte, error) {
	declared, k := binary.Uvarint(c)
	if k <= 0 || declared > uint64(limit) {
		return nil, fmt.Errorf("%w: declared length", ErrCorrupt)
	}
	total := int(declared)
	n = min(n, total)
	c = c[k:]
	w := len(win)
	out := slices.Grow(win, n)
	for len(out)-w < n {
		if len(c) == 0 {
			return nil, fmt.Errorf("%w: ends at %d of %d bytes", ErrCorrupt, len(out)-w, total)
		}
		// Nothing has been clipped to n yet, so at is also how far into
		// the whole the elements read so far reach.
		tag, at := c[0], len(out)-w
		size, length := element(tag)
		var offset int
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
		from := len(out) - offset
		if offset == 0 || from < 0 {
			return nil, fmt.Errorf("%w: offset %d at %d", ErrCorrupt, offset, at)
		}
		if offset >= length {
			out = append(out, out[from:from+length]...)
		} else {
			// The copy reads what it has just written: byte by byte.
			for ; length > 0; from, length = from+1, length-1 {
				out = append(out, out[from])
			}
		}
		c = c[size:]
	}
	if n == total && len(c) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last element", ErrCorrupt, len(c))
	}
	return out, nil
}
