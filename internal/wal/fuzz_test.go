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
	"dcsledger/internal/types"
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
//     never another block;
//  5. a block the store acknowledged survives the next open: Replay of
//     the opened segment either refuses a record, as damage, and leaves
//     the store refusing appends, or delivers what the open kept, and
//     then a block journaled behind it is indexed after the next open,
//     delivered last by Replay and read back.
func FuzzWALRecordDecode(f *testing.F) {
	// Seed corpus: valid frames, records the open cuts, a truncation, and
	// a bit flip. The seeds of the window's bounds, up to 129 block
	// records each, are checked by TestWindowSeeds instead: as fuzz seeds
	// they stall the mutator.
	valid := appendFrame(nil, Record{Seq: 1, Type: RecBlock, Payload: []byte("hello wal")})
	f.Add(valid)
	var enc lz.Encoder
	f.Add(appendFrame(nil, Record{Seq: 1, Type: RecHead, Payload: testBlocks(1)[0].Hash().Bytes()}))
	f.Add(appendFrame(nil, Record{Seq: 1, Type: RecBlock, Payload: testBlocks(1)[0].AppendSigs(enc.Encode([]byte{0}, testBlocks(1)[0].AppendStored(nil)))}))
	// A block record, then a head record to it, which Replay skips.
	f.Add(appendFrame(windowSeed(1, 0, 0), Record{Seq: 2, Type: RecHead, Payload: testBlocks(1)[0].Hash().Bytes()}))
	f.Add(windowSeed(1, 0, 0))                                                   // a block record as the journal writes it
	f.Add(windowSeed(1, windowCap+1, 0))                                         // a lone form past the window's bytes, kept
	f.Add(appendFrame(nil, Record{Seq: 1, Type: RecHead, Payload: []byte("x")})) // a head record of no hash
	f.Add(appendFrame(nil, Record{Seq: 1, Type: 9, Payload: []byte("x")}))       // a type the store never writes
	f.Add(valid[:len(valid)/2])                                                  // torn
	garbled := append([]byte(nil), valid...)
	garbled[len(garbled)-1] ^= 0xFF
	f.Add(garbled)
	f.Add(append(append([]byte(nil), valid...), valid...)) // two frames (2nd has wrong seq)
	huge := make([]byte, seglog.FrameHeaderLen)
	binary.BigEndian.PutUint32(huge[0:4], MaxRecordLen+1)
	f.Add(huge) // oversized length field
	f.Add([]byte{})
	f.Add(appendFrame(windowSeed(1, 0, 0), Record{Seq: 2, Type: RecBlock, Payload: []byte("not a block")})) // cut behind a valid record

	f.Fuzz(checkRecordArea)
}

// checkRecordArea holds properties 1–5 of FuzzWALRecordDecode on a
// segment whose record area is data.
func checkRecordArea(t *testing.T, data []byte) {
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
	s, _, err := openSegment(t, t.TempDir(), data)
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

	// Property 5, on a store of its own: the record property 3 appends
	// is not a block, and the next open cuts it.
	survivesReopen(t, data)
}

// survivesReopen opens a store over a segment whose record area is data,
// replays it and, unless the replay refuses a record, journals a block
// and requires the next open to keep it: indexed, delivered last by
// Replay, and read back.
func survivesReopen(t *testing.T, data []byte) {
	dir := t.TempDir()
	s, rec, err := openSegment(t, dir, data)
	if err != nil {
		return
	}
	defer s.Close()
	b := testBlocks(3)[2]
	if err := rec.Replay(func(Journaled) error { return nil }); err != nil {
		if !errors.Is(err, seglog.ErrDamaged) {
			t.Fatalf("Replay = %v, want nil or damage", err)
		}
		if err := s.LogBlock(b); !errors.Is(err, ErrStoreFailed) {
			t.Fatalf("LogBlock after a refused replay: err = %v, want ErrStoreFailed", err)
		}
		return
	}
	if err := s.LogBlock(b); err != nil {
		t.Fatalf("LogBlock: %v", err)
	}
	s.Close()
	s, rec, err = OpenStore(dir, StoreOptions{Fsync: seglog.SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	var last *types.Block
	if err := rec.Replay(func(j Journaled) error {
		last = j.Block
		return nil
	}); err != nil || last == nil || last.Hash() != b.Hash() {
		t.Fatalf("the replay after the reopen: err %v, last block %v; want the block journaled before it", err, last)
	}
	if got, err := s.ReadBlock(b.Hash()); err != nil || got.Hash() != b.Hash() {
		t.Fatalf("ReadBlock of the block journaled before the reopen: %v, %v", got, err)
	}
}

// windowSeed is n block records, seq 1 on, each of the n blocks of
// testBlocks chained to the record before it as LogBlock chains them
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
		out = appendFrame(out, Record{Seq: seq, Type: RecBlock, Payload: b.AppendSigs(p)})
		seq++
	}
	return out
}

// openSegment opens a store in dir over a journal of one segment, seq 1
// on, whose record area is data.
func openSegment(t *testing.T, dir string, data []byte) (*DurableStore, *Recovery, error) {
	t.Helper()
	seg := append(append([]byte(segMagic), seqExt(1)...), data...)
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal", format.SegmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return OpenStore(dir, StoreOptions{Fsync: seglog.SyncNever})
}

// TestWindowSeeds: the seeds of the window's bounds and of a record that
// is not a block hold FuzzWALRecordDecode's properties, and are what they
// say: a back past the window's records or past its bytes, or a record
// that is not a block, is cut from the journal, and what is before it
// kept; a window full within both is kept whole.
func TestWindowSeeds(t *testing.T) {
	for name, c := range map[string]struct {
		seed, kept []byte // the record area before the open, and after it
		blocks     int
	}{
		"past the records":                  {windowSeed(windowRecords+1, 0, 0), windowSeed(windowRecords, 0, 0), windowRecords},
		"past the bytes":                    {windowSeed(2, windowCap/2+1, 0), windowSeed(1, windowCap/2+1, 0), 1},
		"within both":                       {windowSeed(windowRecords, windowCap/128, 0), windowSeed(windowRecords, windowCap/128, 0), windowRecords},
		"within both, a head record inside": {windowSeed(windowRecords, 0, windowRecords/2), windowSeed(windowRecords, 0, windowRecords/2), windowRecords},
		"not a block behind a block": {
			appendFrame(windowSeed(1, 0, 0), Record{Seq: 2, Type: RecBlock, Payload: []byte("not a block")}), windowSeed(1, 0, 0), 1,
		},
	} {
		t.Run(name, func(t *testing.T) {
			checkRecordArea(t, c.seed)
			dir := t.TempDir()
			s, rec, err := openSegment(t, dir, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if cut := s.Stats().WAL.TornTruncated; rec.Blocks != c.blocks || cut != uint64(len(c.seed)-len(c.kept)) {
				t.Fatalf("%d blocks, %d bytes cut; want %d, %d", rec.Blocks, cut, c.blocks, len(c.seed)-len(c.kept))
			}
			seg, err := os.ReadFile(filepath.Join(dir, "wal", format.SegmentName(1)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seg[format.HeaderLen():], c.kept) {
				t.Fatal("the segment after the open is not the records kept")
			}
		})
	}
}
