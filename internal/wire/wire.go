// Package wire is the repo-wide binary serialization substrate: a
// zero-dependency, allocation-conscious encoder/decoder pair plus
// length-prefixed frame I/O. Every hot-path wire and storage format —
// p2p frames, gossip envelopes, PBFT/Raft/ordering/PoET messages, and
// state snapshots — is built on it (see docs/WIRE.md for the layouts).
//
// Design rules, shared with the canonical codec in internal/types:
//
//   - fixed-width integers are big-endian;
//   - variable-length fields carry an explicit length prefix and are
//     decoded against an explicit upper bound, so a hostile peer cannot
//     force a huge allocation with a forged length;
//   - decoding is total: a Reader latches its first error and every
//     later read returns a zero value, so decode functions can read a
//     whole struct and check Err/Close once at the end;
//   - encodings are canonical: one value has exactly one encoding, and
//     decoders reject trailing bytes (Reader.Close).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Codec errors, matchable with errors.Is.
var (
	// ErrTooLarge reports a length prefix above the decoder's bound.
	ErrTooLarge = errors.New("wire: length exceeds bound")
	// ErrShort reports a truncated buffer.
	ErrShort = errors.New("wire: buffer too short")
	// ErrTrailing reports undecoded bytes after a complete value.
	ErrTrailing = errors.New("wire: trailing bytes")
	// ErrFrameTooLarge reports an inbound frame above the frame cap; the
	// transport treats it as a protocol violation and drops the peer.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size cap")
)

// Buffer is an append-based binary encoder. The zero value is ready to
// use; Grow pre-sizes it.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer pre-sized to capHint bytes.
func NewBuffer(capHint int) *Buffer {
	return &Buffer{b: make([]byte, 0, capHint)}
}

// Bytes returns the encoded bytes (aliased, not copied).
func (w *Buffer) Bytes() []byte { return w.b }

// Len returns the number of encoded bytes so far.
func (w *Buffer) Len() int { return len(w.b) }

// Reset truncates the buffer for reuse, keeping its capacity.
func (w *Buffer) Reset() { w.b = w.b[:0] }

// U8 appends one byte.
func (w *Buffer) U8(v uint8) { w.b = append(w.b, v) }

// U16 appends a big-endian uint16.
func (w *Buffer) U16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }

// U32 appends a big-endian uint32.
func (w *Buffer) U32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }

// U64 appends a big-endian uint64.
func (w *Buffer) U64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }

// Bool appends a bool as one byte (0 or 1).
func (w *Buffer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw appends b verbatim, with no length prefix. Use for fixed-size
// fields (hashes, addresses) whose length is implied by the format.
func (w *Buffer) Raw(b []byte) { w.b = append(w.b, b...) }

// Blob appends a u32 length prefix followed by b.
func (w *Buffer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// Uvarint appends v as a base-128 varint (encoding/binary's).
func (w *Buffer) Uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// VarBlob appends a uvarint length prefix followed by b.
func (w *Buffer) VarBlob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.Raw(b)
}

// String appends a u16 length prefix followed by the string bytes.
// Strings longer than 65535 bytes are a caller bug; they are truncated
// by the prefix width, so callers must bound them first (every format
// in this repo caps strings far below that).
func (w *Buffer) String(s string) {
	w.U16(uint16(len(s)))
	w.b = append(w.b, s...)
}

// Reader decodes a byte slice. The first decode error latches: every
// subsequent read returns a zero value, and Err/Close report it.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader does not copy b; fields
// returned by Blob/Raw are copied out, so the caller may recycle b
// afterwards.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the latched decode error, nil while healthy.
func (r *Reader) Err() error { return r.err }

// Close returns the latched error, or ErrTrailing if undecoded bytes
// remain. Decoders call it last to enforce canonical encodings.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.b)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take claims n bytes, latching ErrShort when they are not there.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail(fmt.Errorf("%w: need %d, have %d", ErrShort, n, len(r.b)-r.off))
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Bool reads one byte, rejecting values other than 0 and 1 (canonical
// encodings have exactly one byte pattern per value).
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(errors.New("wire: non-canonical bool"))
		return false
	}
}

// Raw copies n bytes into dst (len(dst) == n). Use for fixed-size
// fields (hashes, addresses).
func (r *Reader) Raw(dst []byte) {
	b := r.take(len(dst))
	if b != nil {
		copy(dst, b)
	}
}

// Blob reads a u32-length-prefixed byte field of at most max bytes.
// Zero-length blobs decode as nil. The result is a copy.
func (r *Reader) Blob(max uint32) []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if n > max {
		r.fail(fmt.Errorf("%w: blob %d > %d", ErrTooLarge, n, max))
		return nil
	}
	b := r.take(int(n))
	if b == nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Uvarint decodes a base-128 varint from the front of b and returns it
// with the number of bytes it took; n is 0 when b ends inside the
// varint, the value overflows 64 bits, or the form is not the shortest
// one for the value (encodings are canonical: no padding zero byte).
func Uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// Uvarint reads a canonical base-128 varint of at most max.
func (r *Reader) Uvarint(max uint64) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := Uvarint(r.b[r.off:])
	if n == 0 {
		r.fail(errors.New("wire: truncated or non-canonical uvarint"))
		return 0
	}
	if v > max {
		r.fail(fmt.Errorf("%w: uvarint %d > %d", ErrTooLarge, v, max))
		return 0
	}
	r.off += n
	return v
}

// VarBlob reads a uvarint-length-prefixed byte field of at most max
// bytes. Zero-length blobs decode as nil. The result is a copy.
func (r *Reader) VarBlob(max uint32) []byte {
	b := r.take(int(r.Uvarint(uint64(max))))
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a u16-length-prefixed string of at most max bytes.
func (r *Reader) String(max int) string {
	n := int(r.U16())
	if r.err != nil {
		return ""
	}
	if n > max {
		r.fail(fmt.Errorf("%w: string %d > %d", ErrTooLarge, n, max))
		return ""
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Count reads a u32 element count bounded by max, for decoding lists.
func (r *Reader) Count(max uint32) uint32 {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if n > max {
		r.fail(fmt.Errorf("%w: count %d > %d", ErrTooLarge, n, max))
		return 0
	}
	return n
}

// frameHeaderSize is the u32 length prefix in front of every frame.
const frameHeaderSize = 4

// AppendFrame appends a length-prefixed frame carrying body to dst and
// returns the extended slice; the transport writes the result in one
// syscall so frames never interleave.
func AppendFrame(dst, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, body...)
}

// ReadFrame reads one length-prefixed frame of at most max body bytes.
// Oversized frames return ErrFrameTooLarge without reading the body, so
// the caller can drop the connection before the attacker-chosen
// allocation happens. io.EOF before the first header byte is a clean
// end of stream; a partial header or body is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, max uint32) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > max {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}
