package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dcsledger/internal/cryptoutil"
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
//  3. OpenStore on a segment with an arbitrary record area never panics
//     and always yields a log whose records are contiguous — the
//     torn-tail repair turns ANY trailing garbage into a clean prefix;
//  4. every block that store indexes reads back through ReadBlock as the
//     block its hash names, or as an error wrapping seglog.ErrDamaged,
//     never another block.
func FuzzWALRecordDecode(f *testing.F) {
	// Seed corpus: valid frames, a truncation, and a bit flip.
	valid := appendFrame(nil, Record{Seq: 1, Type: RecBlock, Payload: []byte("hello wal")})
	f.Add(valid)
	var enc lz.Encoder
	f.Add(appendFrame(nil, Record{Seq: 1, Type: RecHead, Payload: testBlocks(1)[0].Hash().Bytes()}))
	f.Add(appendFrame(nil, Record{Seq: 1, Type: RecBlock, Payload: testBlocks(1)[0].AppendSigs(enc.Encode([]byte{0}, testBlocks(1)[0].AppendStored(nil)))}))
	f.Add(appendFrame(nil, Record{Seq: 1, Type: RecHeadBlock, Payload: testBlocks(1)[0].AppendSigs(enc.Encode([]byte{0}, testBlocks(1)[0].AppendStored(nil)))}))
	f.Add(windowSeed(windowRecords+1, 0, 0))             // a back past the window's records
	f.Add(windowSeed(2, windowCap/2+1, 0))               // a back past its bytes
	f.Add(windowSeed(windowRecords, windowCap/128, 0))   // a full window, within both
	f.Add(windowSeed(windowRecords, 0, windowRecords/2)) // a full window, a head record inside
	f.Add(valid[:len(valid)/2])                          // torn
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
				if re := appendFrame(nil, rec); !bytes.Equal(re, data[:n]) {
					t.Fatalf("re-encode mismatch: %x != %x", re, data[:n])
				}
				return errFirst
			})

		// Property 3: segment-level repair. Build a segment whose record
		// area is the fuzz input and open the store over it.
		s, _, err := openSegment(t, data)
		if err != nil {
			return // I/O errors are acceptable; panics are not
		}
		defer s.Close()
		// Property 4: the blocks indexed read back, or as damage.
		s.mu.Lock()
		var indexed []cryptoutil.Hash
		for h := range s.blocks {
			indexed = append(indexed, h)
		}
		s.mu.Unlock()
		for _, h := range indexed {
			b, err := s.ReadBlock(h)
			if err == nil && b.Hash() != h || err != nil && !errors.Is(err, seglog.ErrDamaged) {
				t.Fatalf("ReadBlock(%s) = %v, %v: want the block, or damage", h.Short(), b, err)
			}
		}
		recs := records(t, s)
		contiguous(t, recs, 1)
		want := uint64(len(recs)) + 1
		// The repaired log must accept appends at the next seq.
		if seq, _, err := appendRec(s, RecBlock, []byte("post-repair")); err != nil || seq != want {
			t.Fatalf("append after repair: seq=%d err=%v, want %d", seq, err, want)
		}
	})
}

// windowSeed is n block records, seq 1 on, each of the n blocks of
// testBlocks chained to the record before it as LogHeadBlock chains them
// but for the window's bounds: the backs run 0, 1, … n-1. A size above 0
// is what each encoding declares as its storage form's, in place of the
// form's own: the scan inflates only the header, so it weighs a record by
// that. A head above 0 puts a head record, a switch back to the block
// before, in front of block record head.
func windowSeed(n, size, head int) []byte {
	var e lz.Encoder
	var out []byte
	seq := uint64(1)
	blocks := testBlocks(n)
	for i, b := range blocks {
		if head > 0 && i == head {
			out = appendFrame(out, Record{Seq: seq, Type: RecHead, Payload: blocks[i-1].Hash().Bytes()})
			seq++
		}
		form := b.AppendStored(nil)
		back := lz.AppendBack(nil, i)
		p := e.Next(back, append(e.Window(), form...), 8+int(binary.BigEndian.Uint64(form)))
		if size > 0 {
			_, k := binary.Uvarint(p[len(back):])
			p = append(binary.AppendUvarint(back, uint64(size)), p[len(back)+k:]...)
		}
		out = appendFrame(out, Record{Seq: seq, Type: RecHeadBlock, Payload: b.AppendSigs(p)})
		seq++
	}
	return out
}

// openSegment opens a store over a journal of one segment, seq 1 on,
// whose record area is data.
func openSegment(t *testing.T, data []byte) (*DurableStore, *Recovery, error) {
	t.Helper()
	dir := t.TempDir()
	seg := append(append([]byte(segMagic), seqExt(1)...), data...)
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal", format.SegmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return OpenStore(dir, StoreOptions{Fsync: seglog.SyncNever})
}

// TestWindowSeeds: the fuzz seeds of the window's bounds are what they
// say: a back past the window's records or past its bytes ends the
// journal there, and a window full within both is collected whole.
func TestWindowSeeds(t *testing.T) {
	for name, c := range map[string]struct {
		seed              []byte
		blocks, truncated int
	}{
		"past the records":                  {windowSeed(windowRecords+1, 0, 0), windowRecords, 1},
		"past the bytes":                    {windowSeed(2, windowCap/2+1, 0), 1, 1},
		"within both":                       {windowSeed(windowRecords, windowCap/128, 0), windowRecords, 0},
		"within both, a head record inside": {windowSeed(windowRecords, 0, windowRecords/2), windowRecords, 0},
	} {
		t.Run(name, func(t *testing.T) {
			s, rec, err := openSegment(t, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if rec.Blocks != c.blocks || rec.Truncated != c.truncated {
				t.Fatalf("%d blocks, truncated %d; want %d, %d", rec.Blocks, rec.Truncated, c.blocks, c.truncated)
			}
		})
	}
}
