package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/lz"
	"dcsledger/internal/seglog"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
)

// backOf reads block h's record and returns its back.
func backOf(t *testing.T, s *DurableStore, h cryptoutil.Hash) int {
	t.Helper()
	s.mu.Lock()
	at, ok := s.blocks[h]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("block %s is not indexed", h.Short())
	}
	rec, err := s.WAL().ReadAt(at)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := blockPayload(rec)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// logBlocks journals blocks with their head switches.
func logBlocks(t *testing.T, s *DurableStore, blocks []*types.Block) {
	t.Helper()
	for _, b := range blocks {
		if err := s.LogBlock(b); err != nil {
			t.Fatal(err)
		}
		if err := s.LogHead(b.Hash()); err != nil {
			t.Fatal(err)
		}
	}
}

// readsBack fails unless every block reads back byte-identical.
func readsBack(t *testing.T, s *DurableStore, blocks []*types.Block) {
	t.Helper()
	for _, b := range blocks {
		got, err := s.ReadBlock(b.Hash())
		if err != nil || !bytes.Equal(got.Encode(), b.Encode()) {
			t.Fatalf("ReadBlock h=%d: %v", b.Header.Height, err)
		}
	}
}

// TestWindowRestarts: in one segment the window restarts every
// lz.WindowRecords block records, and at the first record after a reopen,
// which appends into the same segment; every block reads back, in the
// session that wrote it and after the next reopen, and replays.
func TestWindowRestarts(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{Fsync: seglog.SyncNever}
	blocks := transferBlocks(t, 25, 8)
	s, _ := openStoreT(t, dir, opts)
	logBlocks(t, s, blocks[:20])
	readsBack(t, s, blocks[:20])
	s.Close()

	s, rec := openStoreT(t, dir, opts)
	if rec.Blocks != 20 || rec.Truncated != 0 {
		t.Fatalf("reopen: %d blocks, truncated %d", rec.Blocks, rec.Truncated)
	}
	logBlocks(t, s, blocks[20:])
	if segs := s.WAL().Stats().Segments; segs != 1 {
		t.Fatalf("%d segments, want the one", segs)
	}
	for i, b := range blocks {
		want := i % lz.WindowRecords
		if i >= 20 {
			want = i - 20
		}
		if got := backOf(t, s, b.Hash()); got != want {
			t.Fatalf("block %d: back %d, want %d", i, got, want)
		}
	}
	readsBack(t, s, blocks)
	s.Close()

	s, rec = openStoreT(t, dir, opts)
	for i, j := range journaledBlocks(t, rec) {
		if j.Block.Hash() != blocks[i].Hash() {
			t.Fatalf("replayed block %d is not the one journaled", i)
		}
	}
	readsBack(t, s, blocks)
}

// TestReadBlockWhileLogging: blocks read back by hash, chained records
// among them, while the same store journals more and rotates segments.
func TestReadBlockWhileLogging(t *testing.T) {
	s, _ := openStoreT(t, t.TempDir(), StoreOptions{Fsync: seglog.SyncNever, SegmentSize: 16 << 10})
	blocks := transferBlocks(t, 48, 8)
	logBlocks(t, s, blocks[:16])
	done := make(chan struct{})
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			for i := 0; ; i++ {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				b := blocks[i%16]
				if got, err := s.ReadBlock(b.Hash()); err != nil || got.Hash() != b.Hash() {
					errs <- fmt.Errorf("ReadBlock h=%d: %v", b.Header.Height, err)
					return
				}
			}
		}()
	}
	logBlocks(t, s, blocks[16:])
	close(done)
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().WAL.Rotations == 0 {
		t.Fatal("no rotation while reading")
	}
	readsBack(t, s, blocks)
}

// TestWindowNeverCrossesSegments: every segment's first block record
// restarts the window, so no record reads across a segment boundary;
// pruning the segments a checkpoint covers leaves every remaining block
// readable, before and after a reopen.
func TestWindowNeverCrossesSegments(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{Fsync: seglog.SyncNever, SegmentSize: 16 << 10}
	blocks := transferBlocks(t, 40, 20)
	s, _ := openStoreT(t, dir, opts)
	logBlocks(t, s, blocks[:24])
	st := state.New()
	st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("a"))), 1)
	if err := s.Checkpoint(blocks[23], st.Commit(), st); err != nil {
		t.Fatal(err)
	}
	logBlocks(t, s, blocks[24:])

	chained := 0
	for seg, locs := range s.segBlocks {
		for i, at := range locs {
			rec, err := s.WAL().ReadAt(at)
			if err != nil {
				t.Fatal(err)
			}
			back, _, _ := blockPayload(rec)
			if i == 0 && back != 0 || back > i {
				t.Fatalf("segment %d, block record %d: back %d reaches out of the segment", seg, i, back)
			}
			if back > 0 {
				chained++
			}
		}
	}
	if len(s.segBlocks) < 4 || chained == 0 {
		t.Fatalf("%d segments, %d chained records: the case is not exercised", len(s.segBlocks), chained)
	}

	removed, err := s.PruneBefore(s.WAL().LastSeq())
	if err != nil || removed == 0 {
		t.Fatalf("PruneBefore removed %d: %v", removed, err)
	}
	var kept []*types.Block
	for _, b := range blocks {
		if s.HasBlock(b.Hash()) {
			kept = append(kept, b)
		} else if _, err := s.ReadBlock(b.Hash()); !errors.Is(err, ErrNoBlock) {
			t.Fatalf("a pruned block reads as %v", err)
		}
	}
	if len(kept) == len(blocks) || len(kept) < 16 {
		t.Fatalf("%d of %d blocks kept", len(kept), len(blocks))
	}
	for seg := range s.segBlocks {
		if seg < uint32(s.WAL().firstSegment()) {
			t.Fatalf("segment %d was pruned and is still listed", seg)
		}
	}
	readsBack(t, s, kept)
	s.Close()

	s, rec := openStoreT(t, dir, opts)
	if rec.Blocks != len(kept) || rec.Truncated != 0 {
		t.Fatalf("reopen after pruning: %d blocks, truncated %d; want %d, 0", rec.Blocks, rec.Truncated, len(kept))
	}
	readsBack(t, s, kept)
	journaledBlocks(t, rec)
}

// TestDamageInsideWindow: a damaged record in the middle of a window —
// its CRC failing, or CRC-valid and not inflating — makes it and the
// later records of its window unreadable, each an ErrDamaged naming its
// block, never a block; the records before it and those from the next
// restart on read as before. Recovery sees what it always saw: a failed
// CRC cuts the log there, a record that does not inflate ends the
// replay in front of it.
func TestDamageInsideWindow(t *testing.T) {
	const bad = 5 // of windows [0, 16) and [16, 20)
	for _, crcValid := range []bool{false, true} {
		name := map[bool]string{false: "crc fails", true: "does not inflate"}[crcValid]
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := StoreOptions{Fsync: seglog.SyncNever}
			blocks := transferBlocks(t, 20, 8)
			s, _ := openStoreT(t, dir, opts)
			logBlocks(t, s, blocks)
			at := s.blocks[blocks[bad].Hash()]
			rec, err := s.WAL().ReadAt(at)
			if err != nil {
				t.Fatal(err)
			}
			back, body, _ := blockPayload(rec)
			if back != bad {
				t.Fatalf("back %d, want %d", back, bad)
			}

			path := filepath.Join(dir, "wal", format.SegmentName(uint64(at.Seg)))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			frame := data[at.Off : at.Off+int64(at.Len)]
			payload := frame[seglog.FrameHeaderLen+recordHeaderLen:]
			if crcValid {
				// The last element overruns the declared length; the CRC
				// is the new body's.
				payload[len(payload)-len(body)+lastLiteral(t, body)] = 0xff
				binary.BigEndian.PutUint32(frame[4:], seglog.Checksum(frame[seglog.FrameHeaderLen:]))
			} else {
				payload[len(payload)-1] ^= 0xff
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			for i, b := range blocks {
				_, err := s.ReadBlock(b.Hash())
				damaged := i >= bad && i < lz.WindowRecords
				if damaged != (err != nil) || damaged && (!errors.Is(err, seglog.ErrDamaged) || !strings.Contains(err.Error(), b.Hash().Short())) {
					t.Fatalf("ReadBlock of block %d: err = %v; want damaged %v, naming %s", i, err, damaged, b.Hash().Short())
				}
			}
			s.Close()

			_, recov := openStoreT(t, dir, opts)
			got := journaledPrefix(t, recov)
			if len(got) != bad {
				t.Fatalf("recovered %d blocks, want the %d before the damaged one", len(got), bad)
			}
			wantTruncated := 0
			if crcValid {
				wantTruncated = 2 * (len(blocks) - bad) // its record, and every record after it
			}
			if recov.Truncated != wantTruncated {
				t.Fatalf("Truncated = %d, want %d", recov.Truncated, wantTruncated)
			}
		})
	}
}

// journaledPrefix is journaledBlocks for a replay that may end short of
// what the open-time scan counted.
func journaledPrefix(t *testing.T, rec *Recovery) []Journaled {
	t.Helper()
	var out []Journaled
	if err := rec.Replay(func(j Journaled) error {
		if j.Block != nil {
			out = append(out, j)
		}
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

// TestOutOfWindowRecordStopsCollection: a CRC-valid RecBlock that no
// writer produces — a back that does not follow the record before it, a
// back past the window, a chained record first in its segment, a header
// that copies from the window — ends the journal at the open-time scan,
// counted in Truncated with everything behind it, like any record that
// does not inflate.
func TestOutOfWindowRecordStopsCollection(t *testing.T) {
	blocks := transferBlocks(t, 3, 20)
	raw0, raw1 := blocks[0].Encode(), blocks[1].Encode()
	chained := func(back uint64, guard int) []byte {
		var e lz.Encoder
		e.Next(nil, append(e.Window(), raw0...), 0)
		return e.Next(binary.AppendUvarint(nil, back), append(e.Window(), raw1...), guard)
	}
	headerOf := 8 + int(binary.BigEndian.Uint64(raw1))
	var twice lz.Encoder // block 0 again, its header a copy of the window
	twice.Next(nil, append(twice.Window(), raw0...), 0)
	for name, c := range map[string]struct {
		payload     []byte
		segmentSize int64
	}{
		"back does not follow":       {chained(3, headerOf), 0},
		"back past the window":       {binary.AppendUvarint(nil, lz.WindowRecords), 0},
		"chained, first in segment":  {chained(1, headerOf), 4 << 10},
		"header copies the window":   {twice.Next(binary.AppendUvarint(nil, 1), append(twice.Window(), raw0...), 0), 0},
		"no back":                    {nil, 0},
		"back of ten bytes, garbled": {[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, 0},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := StoreOptions{Fsync: seglog.SyncNever, SegmentSize: c.segmentSize}
			s, _ := openStoreT(t, dir, opts)
			if err := s.LogBlock(blocks[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WAL().Append(RecBlock, c.payload); err != nil {
				t.Fatal(err)
			}
			if err := s.LogBlock(blocks[2]); err != nil {
				t.Fatal(err)
			}
			s.Close()

			_, rec := openStoreT(t, dir, opts)
			if got := journaledBlocks(t, rec); len(got) != 1 || got[0].Block.Hash() != blocks[0].Hash() {
				t.Fatalf("recovered %d blocks, want the 1 before the bad record", len(got))
			}
			if rec.Truncated != 2 {
				t.Fatalf("Truncated = %d, want 2 (bad record + dropped successor)", rec.Truncated)
			}
		})
	}
	// The same record with a back that follows and a guarded header is
	// what LogBlock writes: it is collected.
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncNever})
	if err := s.LogBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WAL().Append(RecBlock, chained(1, headerOf)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, rec := openStoreT(t, dir, StoreOptions{})
	if rec.Blocks != 2 || rec.Truncated != 0 {
		t.Fatalf("a well-formed chained record: %d blocks, truncated %d", rec.Blocks, rec.Truncated)
	}
	readsBack(t, s, blocks[:2])
}
