package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dcsledger/internal/lz"
	"dcsledger/internal/seglog"
)

// FuzzWALRecordDecode throws arbitrary bytes at the frame decoder and
// the segment scanner. Invariants under fuzzing:
//
//  1. scanning a frame (seglog's Format.Scan, then decodeRecord) never
//     panics and never yields a record without a valid CRC;
//  2. a successfully decoded frame re-encodes to exactly the bytes
//     consumed (the framing is canonical);
//  3. Open on a segment with an arbitrary record area never panics and
//     always yields a log whose records are contiguous — the torn-tail
//     repair turns ANY trailing garbage into a clean prefix.
func FuzzWALRecordDecode(f *testing.F) {
	// Seed corpus: valid frames, a truncation, and a bit flip.
	valid := encodeFrame(Record{Seq: 1, Type: RecBlock, Payload: []byte("hello wal")})
	f.Add(valid)
	var enc lz.Encoder
	f.Add(encodeFrame(Record{Seq: 1, Type: RecHead, Payload: testBlocks(1)[0].Hash().Bytes()}))
	f.Add(encodeFrame(Record{Seq: 1, Type: RecBlock, Payload: enc.Encode([]byte{0}, testBlocks(1)[0].Encode())}))
	f.Add(valid[:len(valid)/2]) // torn
	garbled := append([]byte(nil), valid...)
	garbled[len(garbled)-1] ^= 0xFF
	f.Add(garbled)
	f.Add(append(append([]byte(nil), valid...), valid...)) // two frames (2nd has wrong seq)
	huge := make([]byte, seglog.FrameHeaderLen)
	binary.BigEndian.PutUint32(huge[0:4], MaxRecordLen+1)
	f.Add(huge) // oversized length field
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1+2: the first frame, read through the shared scanner
		// behind a segment header.
		errFirst := errors.New("one frame is enough")
		header := append([]byte(segMagic), seqExt(1)...)
		// However the scan ends is fine: the callback holds the properties.
		_, _ = format.Scan(io.MultiReader(bytes.NewReader(header), bytes.NewReader(data)), nil,
			func(_ int64, body []byte) error {
				rec, ok := decodeRecord(body)
				if !ok {
					return seglog.ErrDamaged
				}
				n := seglog.FrameHeaderLen + len(body)
				if n > len(data) {
					t.Fatalf("decoded frame length %d out of range (input %d)", n, len(data))
				}
				if re := encodeFrame(rec); !bytes.Equal(re, data[:n]) {
					t.Fatalf("re-encode mismatch: %x != %x", re, data[:n])
				}
				return errFirst
			})

		// Property 3: segment-level repair. Build a segment whose record
		// area is the fuzz input and open the directory.
		dir := t.TempDir()
		seg := make([]byte, 0, format.HeaderLen()+len(data))
		seg = append(seg, segMagic...)
		var first [8]byte
		binary.BigEndian.PutUint64(first[:], 1)
		seg = append(seg, first[:]...)
		seg = append(seg, data...)
		if err := os.WriteFile(filepath.Join(dir, format.SegmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(dir, Options{})
		if err != nil {
			return // I/O errors are acceptable; panics are not
		}
		defer w.Close()
		want := uint64(1)
		if err := w.Replay(func(r Record) error {
			if r.Seq != want {
				t.Fatalf("non-contiguous replay: seq %d, want %d", r.Seq, want)
			}
			want++
			return nil
		}); err != nil {
			t.Fatalf("Replay after repair: %v", err)
		}
		// The repaired log must accept appends at the next seq.
		if seq, err := w.Append(RecBlock, []byte("post-repair")); err != nil || seq != want {
			t.Fatalf("append after repair: seq=%d err=%v, want %d", seq, err, want)
		}
	})
}
