package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	var w Buffer
	w.U8(0xAB)
	w.U16(0xCDEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.Bool(true)
	w.Bool(false)
	w.Raw([]byte{1, 2, 3})
	w.Blob([]byte("payload"))
	w.Blob(nil)
	w.String("topic")
	w.String("")

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0xCDEF {
		t.Fatalf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789ABCDEF {
		t.Fatalf("U64 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	var raw [3]byte
	r.Raw(raw[:])
	if raw != [3]byte{1, 2, 3} {
		t.Fatalf("Raw = %v", raw)
	}
	if got := r.Blob(1 << 10); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Blob = %q", got)
	}
	if got := r.Blob(1 << 10); got != nil {
		t.Fatalf("empty Blob = %v, want nil", got)
	}
	if got := r.String(64); got != "topic" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(64); got != "" {
		t.Fatalf("empty String = %q", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestReaderLatchesFirstError(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.U32() // short
	if !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("Err = %v, want ErrShort", r.Err())
	}
	// Every later read is a zero value; the error does not change.
	if r.U64() != 0 || r.U8() != 0 || r.Blob(10) != nil || r.String(10) != "" {
		t.Fatal("reads after error must return zero values")
	}
	if !errors.Is(r.Close(), ErrShort) {
		t.Fatalf("Close = %v, want first error", r.Close())
	}
}

func TestBlobAndStringBounds(t *testing.T) {
	var w Buffer
	w.Blob(make([]byte, 100))
	r := NewReader(w.Bytes())
	if r.Blob(99); !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("Blob over bound: %v, want ErrTooLarge", r.Err())
	}

	var w2 Buffer
	w2.String("abcdef")
	r2 := NewReader(w2.Bytes())
	if r2.String(5); !errors.Is(r2.Err(), ErrTooLarge) {
		t.Fatalf("String over bound: %v, want ErrTooLarge", r2.Err())
	}

	// A forged length prefix larger than the buffer must not allocate or
	// panic: it is ErrShort after the bound check passes.
	var w3 Buffer
	w3.U32(1 << 20)
	r3 := NewReader(w3.Bytes())
	if r3.Blob(1 << 24); !errors.Is(r3.Err(), ErrShort) {
		t.Fatalf("forged length: %v, want ErrShort", r3.Err())
	}
}

func TestCountBound(t *testing.T) {
	var w Buffer
	w.U32(17)
	r := NewReader(w.Bytes())
	if got := r.Count(16); got != 0 || !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("Count = %d err %v, want bound error", got, r.Err())
	}
}

func TestNonCanonicalBool(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("Bool(2) must be rejected")
	}
}

func TestCloseRejectsTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	_ = r.U8()
	if err := r.Close(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Close = %v, want ErrTrailing", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	body := []byte("hello frame")
	frame := AppendFrame(nil, body)
	got, err := ReadFrame(bytes.NewReader(frame), 1<<10)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body = %q", got)
	}

	// Two frames back to back parse independently.
	frames := AppendFrame(AppendFrame(nil, []byte("a")), []byte("bb"))
	br := bytes.NewReader(frames)
	f1, err1 := ReadFrame(br, 10)
	f2, err2 := ReadFrame(br, 10)
	if err1 != nil || err2 != nil || string(f1) != "a" || string(f2) != "bb" {
		t.Fatalf("frames = %q/%v %q/%v", f1, err1, f2, err2)
	}
	if _, err := ReadFrame(br, 10); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

func TestFrameOversizeRejectedBeforeAllocation(t *testing.T) {
	// Header claims 1 GiB; only the 4 header bytes exist. The cap must
	// reject it without attempting the body read.
	frame := AppendFrame(nil, nil)
	frame[0], frame[1], frame[2], frame[3] = 0x40, 0, 0, 0
	if _, err := ReadFrame(bytes.NewReader(frame), 1<<24); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	frame := AppendFrame(nil, []byte("full body"))
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-3]), 1<<10); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame = %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame[:2]), 1<<10); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestBufferReuse(t *testing.T) {
	w := NewBuffer(64)
	w.U64(42)
	first := append([]byte(nil), w.Bytes()...)
	w.Reset()
	w.U64(42)
	if !bytes.Equal(first, w.Bytes()) {
		t.Fatal("Reset changed the encoding")
	}
	if w.Len() != 8 {
		t.Fatalf("Len = %d", w.Len())
	}
}

// TestUvarintIsCanonical: one value, one encoding — a varint padded
// with a zero byte, cut short or past 64 bits is refused, and a length
// above the caller's bound is refused before anything is taken.
func TestUvarintIsCanonical(t *testing.T) {
	var w Buffer
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<64 - 1} {
		w.Uvarint(v)
	}
	w.VarBlob([]byte("payload"))
	w.VarBlob(nil)
	r := NewReader(w.Bytes())
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<64 - 1} {
		if got := r.Uvarint(1<<64 - 1); got != v {
			t.Fatalf("Uvarint = %d, want %d", got, v)
		}
	}
	if got := r.VarBlob(16); string(got) != "payload" {
		t.Fatalf("VarBlob = %q", got)
	}
	if got := r.VarBlob(16); got != nil || r.Close() != nil {
		t.Fatalf("empty VarBlob = %v, Close = %v", got, r.Close())
	}
	for name, enc := range map[string][]byte{
		"padded zero":  {0x80, 0x00},
		"padded one":   {0x81, 0x80, 0x00},
		"truncated":    {0x80},
		"empty":        {},
		"over 64 bits": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	} {
		if v, n := Uvarint(enc); n != 0 || v != 0 {
			t.Errorf("%s: Uvarint = %d, %d; want refused", name, v, n)
		}
		r := NewReader(enc)
		if r.Uvarint(1<<64 - 1); r.Err() == nil {
			t.Errorf("%s: Reader accepted it", name)
		}
	}
	r = NewReader([]byte{200, 1, 'x'})
	if r.VarBlob(100); !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("VarBlob over its bound: %v", r.Err())
	}
}
