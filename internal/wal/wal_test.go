package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/seglog"
)

// The tests of the log itself: records in, records out, through the
// store that owns it.

// headHash is the deterministic payload of head record i.
func headHash(i int) cryptoutil.Hash {
	return cryptoutil.HashBytes([]byte(fmt.Sprintf("record-%04d", i)))
}

// logHeads journals n head switches with deterministic payloads.
func logHeads(t *testing.T, s *DurableStore, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.LogHead(headHash(i)); err != nil {
			t.Fatalf("LogHead #%d: %v", i, err)
		}
	}
}

// appendRec appends one record of any type and payload, under the
// store's lock but past its latch: what a test needs to write records no
// writer produces, or to probe the log after the store failed.
func appendRec(s *DurableStore, typ byte, payload []byte) (uint64, Loc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(typ, payload)
}

// recordAt reads back the last record of the frames at at: a record's
// own frame, or a block's index entry, which ends in its record.
func recordAt(t testing.TB, s *DurableStore, at Loc) Record {
	t.Helper()
	s.mu.Lock()
	f, err := s.log.Reader(uint64(at.Seg))
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	span := make([]byte, at.Len)
	if _, err := f.ReadAt(span, at.Off); err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := format.Frames(span, at.Off, func(_ int64, body []byte) error {
		var ok bool
		if rec, ok = decodeRecord(body); !ok {
			return seglog.ErrDamaged
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rec
}

// records collects every record in the log, payloads copied.
func records(t *testing.T, s *DurableStore) []Record {
	t.Helper()
	s.mu.Lock()
	segs := s.log.Segments()
	s.mu.Unlock()
	var recs []Record
	if _, _, err := s.scan(segs, func(r Record, _ Loc) error {
		r.Payload = append([]byte(nil), r.Payload...)
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return recs
}

// contiguous fails unless recs run from seq first up by one.
func contiguous(t *testing.T, recs []Record, first uint64) {
	t.Helper()
	for i, r := range recs {
		if r.Seq != first+uint64(i) {
			t.Fatalf("discontinuity at %d: seq %d, want %d", i, r.Seq, first+uint64(i))
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	logHeads(t, s, 25)
	recs := records(t, s)
	if len(recs) != 25 {
		t.Fatalf("replayed %d records, want 25", len(recs))
	}
	contiguous(t, recs, 1)
	for i, r := range recs {
		if h := headHash(i); string(r.Payload) != string(h[:]) || r.Type != RecHead {
			t.Fatalf("record %d: type %d payload %x, want %d %x", i, r.Type, r.Payload, RecHead, h)
		}
	}
	if got := s.Stats().WAL.LastSeq; got != 25 {
		t.Fatalf("LastSeq = %d, want 25", got)
	}
	s.Close()
	if s, rec := openStoreT(t, dir, StoreOptions{}); rec.Blocks != 0 || len(records(t, s)) != 25 {
		t.Fatalf("reopen: %d blocks, %d records; want the 25 head records and no block", rec.Blocks, len(records(t, s)))
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	logHeads(t, s, 10)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	if got := s2.Stats().WAL.LastSeq; got != 10 {
		t.Fatalf("LastSeq after reopen = %d, want 10", got)
	}
	seq, _, err := appendRec(s2, RecHead, []byte("x"))
	if err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if seq != 11 {
		t.Fatalf("next seq = %d, want 11", seq)
	}
	if recs := records(t, s2); len(recs) != 11 {
		t.Fatalf("replayed %d records, want 11", len(recs))
	}
}

func TestSegmentRotationAndContinuity(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: two head records (49 bytes framed) fill one.
	opts := StoreOptions{Fsync: seglog.SyncAlways, SegmentSize: 128}
	s, _ := openStoreT(t, dir, opts)
	logHeads(t, s, 50)
	st := s.Stats().WAL
	if st.Rotations == 0 {
		t.Fatalf("expected segment rotations, got 0 (stats %+v)", st)
	}
	if st.Segments < 2 {
		t.Fatalf("expected >= 2 segments, got %d", st.Segments)
	}
	// Sequence numbers must be contiguous across all segment boundaries.
	recs := records(t, s)
	if len(recs) != 50 {
		t.Fatalf("replayed %d records, want 50", len(recs))
	}
	contiguous(t, recs, 1)
	// And survive a reopen, which appends on at the next seq.
	s.Close()
	s2, _ := openStoreT(t, dir, opts)
	if got := len(records(t, s2)); got != 50 {
		t.Fatalf("after reopen: %d records, want 50", got)
	}
	if seq, _, err := appendRec(s2, RecHead, []byte("x")); err != nil || seq != 51 {
		t.Fatalf("append after reopen = %d, %v; want 51", seq, err)
	}
}

// TestCrashModesTruncateToPrefix drives each failpoint mode and asserts
// that reopening the directory recovers exactly the records appended
// before the crash — the log is always a valid prefix. A crash on the
// record of the block that would be the new head recovers the blocks
// before it, without the block.
func TestCrashModesTruncateToPrefix(t *testing.T) {
	for _, mode := range []seglog.FailMode{seglog.FailCut, seglog.FailTorn, seglog.FailGarble} {
		t.Run(mode.String()+"/head block", func(t *testing.T) {
			dir := t.TempDir()
			blocks := testBlocks(8)
			s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
			logBlocks(t, s, blocks[:7])
			s.SetFailpoint(mode, 1)
			if err := s.LogBlock(blocks[7]); !errors.Is(err, ErrStoreFailed) {
				t.Fatalf("append at failpoint: err = %v, want ErrStoreFailed", err)
			}
			s.Close()

			s2, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
			if rec.Blocks != 7 || rec.TipHeight() != blocks[6].Header.Height {
				t.Fatalf("mode %s: recovered %d blocks to height %d; want 7, to the block before the crash", mode, rec.Blocks, rec.TipHeight())
			}
			if s2.HasBlock(blocks[7].Hash()) {
				t.Fatalf("mode %s: the block the crash cut is in the journal", mode)
			}
			readsBack(t, s2, blocks[:7])
		})
	}
	for _, mode := range []seglog.FailMode{seglog.FailCut, seglog.FailTorn, seglog.FailGarble} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
			logHeads(t, s, 7)
			s.SetFailpoint(mode, 1) // crash on the next append
			if err := s.LogHead(headHash(7)); !errors.Is(err, ErrStoreFailed) {
				t.Fatalf("append at failpoint: err = %v, want ErrStoreFailed", err)
			}
			if s.Failed() == nil {
				t.Fatal("Failed() = nil after the failpoint fired")
			}
			// The log is latched under the store's latch too: every later
			// write fails like a dead process.
			if _, _, err := appendRec(s, RecHead, []byte("more")); !errors.Is(err, seglog.ErrCrashed) {
				t.Fatalf("append after crash: err = %v, want seglog.ErrCrashed", err)
			}
			s.Close()

			s2, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
			recs := records(t, s2)
			if len(recs) != 7 {
				t.Fatalf("mode %s: recovered %d records, want 7", mode, len(recs))
			}
			if mode != seglog.FailCut && s2.Stats().WAL.TornTruncated == 0 {
				t.Fatalf("mode %s: expected TornTruncated > 0", mode)
			}
			// The repaired log accepts new appends at the right seq.
			if err := s2.LogHead(headHash(8)); err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			if seq := s2.Stats().WAL.LastSeq; seq != 8 {
				t.Fatalf("seq after repair = %d, want 8", seq)
			}
		})
	}
}

// TestFailpointNthAppend verifies the trigger counts appends from
// arming, 1-based.
func TestFailpointNthAppend(t *testing.T) {
	s, _ := openStoreT(t, t.TempDir(), StoreOptions{Fsync: seglog.SyncAlways})
	s.SetFailpoint(seglog.FailTorn, 3)
	logHeads(t, s, 2)
	if err := s.LogHead(headHash(2)); !errors.Is(err, ErrStoreFailed) || s.Failed() == nil {
		t.Fatalf("3rd append: err = %v, want ErrStoreFailed", err)
	}
}

// TestMidLogCorruptionDropsSuffix garbles a byte in an early segment and
// verifies opening truncates there and deletes every later segment.
func TestMidLogCorruptionDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{Fsync: seglog.SyncAlways, SegmentSize: 128}
	s, _ := openStoreT(t, dir, opts)
	logHeads(t, s, 40)
	if s.Stats().WAL.Segments < 3 {
		t.Fatalf("need >= 3 segments for this test, got %d", s.Stats().WAL.Segments)
	}
	s.Close()

	// Flip one byte in the middle of the FIRST segment's record area.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("found %d segment files, want >= 3", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[format.HeaderLen()+seglog.FrameHeaderLen+recordHeaderLen+2] ^= 0xFF // payload byte of record 1
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := openStoreT(t, dir, opts)
	if recs := records(t, s2); len(recs) != 0 || rec.Blocks != 0 {
		t.Fatalf("recovered %d records, %d blocks after first-record corruption, want none", len(recs), rec.Blocks)
	}
	st := s2.Stats().WAL
	if st.Segments != 1 {
		t.Fatalf("later segments not removed: %d live", st.Segments)
	}
	if st.TornTruncated == 0 {
		t.Fatal("expected TornTruncated > 0")
	}
}

func TestFsyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		s, _ := openStoreT(t, t.TempDir(), StoreOptions{Fsync: seglog.SyncAlways})
		logHeads(t, s, 5)
		if got := s.Stats().WAL.Fsyncs; got != 5 {
			t.Fatalf("fsyncs = %d, want 5 (one per append)", got)
		}
	})
	t.Run("never", func(t *testing.T) {
		s, _ := openStoreT(t, t.TempDir(), StoreOptions{Fsync: seglog.SyncNever})
		logHeads(t, s, 5)
		if got := s.Stats().WAL.Fsyncs; got != 0 {
			t.Fatalf("fsyncs = %d, want 0", got)
		}
	})
	t.Run("interval", func(t *testing.T) {
		now := time.Unix(1000, 0)
		s, _ := openStoreT(t, t.TempDir(), StoreOptions{
			Fsync: seglog.SyncInterval,
			Clock: func() time.Time { return now },
		})
		logHeads(t, s, 5) // clock frozen: no interval elapsed
		if got := s.Stats().WAL.Fsyncs; got != 0 {
			t.Fatalf("fsyncs with frozen clock = %d, want 0", got)
		}
		now = now.Add(seglog.DefaultSyncEvery)
		logHeads(t, s, 1) // interval elapsed: this append syncs
		if got := s.Stats().WAL.Fsyncs; got != 1 {
			t.Fatalf("fsyncs after interval = %d, want 1", got)
		}
		logHeads(t, s, 3) // clock frozen again
		if got := s.Stats().WAL.Fsyncs; got != 1 {
			t.Fatalf("fsyncs = %d, want still 1", got)
		}
	})
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{
		"always": seglog.SyncAlways, "Interval": seglog.SyncInterval, " never ": seglog.SyncNever,
	} {
		got, err := ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
		if got.String() == "" {
			t.Fatalf("empty String() for %v", got)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
}

func TestAppendErrors(t *testing.T) {
	s, _ := openStoreT(t, t.TempDir(), StoreOptions{})
	if _, _, err := appendRec(s, RecBlock, make([]byte, MaxRecordLen)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: err = %v, want ErrTooLarge", err)
	}
	if got := s.Stats().WAL.Appends; got != 0 {
		t.Fatalf("an oversized record was written: %d appends", got)
	}
	s.Close()
	if _, _, err := appendRec(s, RecHead, []byte("x")); !errors.Is(err, seglog.ErrClosed) {
		t.Fatalf("append after close: err = %v, want seglog.ErrClosed", err)
	}
	if err := s.LogHead(headHash(0)); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("LogHead after close: err = %v, want ErrStoreFailed", err)
	}
}

func TestEmptyLogOpenClose(t *testing.T) {
	dir := t.TempDir()
	s, rec := openStoreT(t, dir, StoreOptions{})
	if got := s.Stats().WAL.LastSeq; got != 0 {
		t.Fatalf("LastSeq of empty log = %d, want 0", got)
	}
	if recs := records(t, s); len(recs) != 0 || rec.Blocks != 0 {
		t.Fatalf("empty log replayed %d records, %d blocks", len(recs), rec.Blocks)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen the (empty but header-bearing) log.
	s2, _ := openStoreT(t, dir, StoreOptions{})
	if got := s2.Stats().WAL.LastSeq; got != 0 {
		t.Fatalf("LastSeq after reopen = %d, want 0", got)
	}
	if seq, _, err := appendRec(s2, RecHead, []byte("first")); err != nil || seq != 1 {
		t.Fatalf("first append = %d, %v; want 1, nil", seq, err)
	}
}

// TestReadErrorAbortsOpen: a segment the disk will not read is not a
// damaged segment. Here segment 2 is replaced by a directory of the
// same name, so read(2) fails with EISDIR; opening must fail and leave
// every file as it found it. (Treating the failed read as a bad header
// used to delete this segment and every later one.)
func TestReadErrorAbortsOpen(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{Fsync: seglog.SyncNever, SegmentSize: 128}
	s, _ := openStoreT(t, dir, opts)
	logHeads(t, s, 40)
	if s.Stats().WAL.Segments < 3 {
		t.Fatalf("need >= 3 segments, got %d", s.Stats().WAL.Segments)
	}
	s.Close()
	unreadable := filepath.Join(dir, "wal", format.SegmentName(2))
	if err := os.Remove(unreadable); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(unreadable, 0o755); err != nil {
		t.Fatal(err)
	}
	before := hashTree(t, dir)

	if s2, _, err := OpenStore(dir, opts); err == nil {
		s2.Close()
		t.Fatal("OpenStore succeeded over an unreadable segment")
	}
	if st, err := os.Stat(unreadable); err != nil || !st.IsDir() {
		t.Fatalf("OpenStore removed the unreadable segment: %v", err)
	}
	after := hashTree(t, dir)
	if len(after) != len(before) {
		t.Fatalf("OpenStore left %d files of %d", len(after), len(before))
	}
	for name, sum := range before {
		if after[name] != sum {
			t.Fatalf("OpenStore modified %s", name)
		}
	}
}
