package lz

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"dcsledger/internal/wire"
)

// WindowRecords is how many records one window of a Chain holds at most
// unless the Chain says otherwise (Records), and so how many records a
// read of one inflates.
const WindowRecords = 16

// Split splits a record's payload, uvarint back | encoding, into its back
// and its encoding, and returns the length the encoding declares. ok is
// false unless both uvarints are there, in their shortest form, and the
// declared length is at most limit.
func Split(p []byte, limit int) (back int, enc []byte, size int, ok bool) {
	v, k := wire.Uvarint(p)
	if k == 0 || v > math.MaxInt32 {
		return 0, nil, 0, false
	}
	d, n := wire.Uvarint(p[k:])
	if n == 0 || d > uint64(limit) {
		return 0, nil, 0, false
	}
	return int(v), p[k:], int(d), true
}

// AppendBack appends to dst the back a payload opens with (Split).
func AppendBack(dst []byte, back int) []byte { return binary.AppendUvarint(dst, uint64(back)) }

// Chain is the window of a store whose records are each compressed
// against the records of their window before them, and the rule that
// bounds it. The store gives each record a position, in a unit of its own
// that grows from each record to the next; a record's back is 0 when it
// restarts a window, else the distance from the window's first record to
// it. A window holds at most Records records (WindowRecords while that is
// 0) and, past its first, at most Cap bytes. A record that breaks the rule
// or does not inflate breaks the chain: the later records of its window
// fail too, up to the next restart. The zero value has no window yet, no
// cap, WindowRecords records, and one buffer that every window reuses.
type Chain struct {
	// Cap, when above 0, bounds the bytes of a window of more than one
	// record.
	Cap int
	// Records, when above 0, bounds the records of a window in place of
	// WindowRecords.
	Records int
	// Keep gives every window a part of the buffer of its own, so that
	// what a window inflated stays valid while later windows inflate.
	Keep bool
	// The window's first position, its records (0 once broken) and their
	// bytes; and what they inflated to.
	start, n, size int
	win            []byte
}

// Back returns the back of a record of size bytes at pos: the distance to
// the window's first record if the window has room for it, else 0. It
// takes nothing in: Admit does.
func (c *Chain) Back(pos, size int) int {
	if c.n == 0 || c.n == c.records() || pos <= c.start || c.Cap > 0 && c.size+size > c.Cap {
		return 0
	}
	return pos - c.start
}

// records is how many records a window of c holds at most.
func (c *Chain) records() int {
	if c.Records > 0 {
		return c.Records
	}
	return WindowRecords
}

// Admit takes in the record of size bytes at pos whose back this is, if
// it is 0 or what Back returns, and reports whether it did. A record it
// refuses breaks the chain.
func (c *Chain) Admit(pos, back, size int) bool {
	switch {
	case back == 0:
		c.start, c.n, c.size = pos, 0, 0
	case back != c.Back(pos, size):
		c.n = 0
		return false
	}
	c.n++
	c.size += size
	return true
}

// Grow makes room for n more bytes of windows, so that a chain that Keeps
// its windows allocates once.
func (c *Chain) Grow(n int) { c.win = slices.Grow(c.win, n) }

// Inflate is Admit, then the record's inflation behind its window: first
// key, bytes of the record the reader has anyway and the encoder was
// handed by Extend, then what enc encodes, at most limit bytes, which it
// returns. They stay valid until the chain restarts a window, or for good
// with Keep. Every error wraps ErrCorrupt.
func (c *Chain) Inflate(pos, back, size int, key, enc []byte, limit int) ([]byte, error) {
	if !c.Admit(pos, back, size) {
		return nil, fmt.Errorf("%w: back %d at %d is outside the window", ErrCorrupt, back, pos)
	}
	switch {
	case back == 0 && c.Keep:
		c.win = c.win[len(c.win):]
	case back == 0:
		c.win = c.win[:0]
	case !c.Keep:
		c.win = Trim(c.win)
	}
	c.win = append(c.win, key...)
	out, err := AppendDecode(c.win, enc, limit, limit)
	if err != nil {
		c.n = 0
		return nil, err
	}
	at := len(c.win)
	c.win = out
	return out[at:len(out):len(out)], nil
}
