package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dcsledger/internal/seglog"
)

// openT opens a WAL in a fresh temp dir and registers cleanup.
func openT(t *testing.T, dir string, opts Options) *WAL {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// appendN appends n records with deterministic payloads and returns the
// payload of record seq for later comparison.
func appendN(t *testing.T, w *WAL, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("record-%04d", i))
		if _, err := w.Append(RecBlock, payload); err != nil {
			t.Fatalf("Append #%d: %v", i, err)
		}
	}
}

// replayAll collects every record in the log.
func replayAll(t *testing.T, w *WAL) []Record {
	t.Helper()
	var recs []Record
	if err := w.Replay(func(r Record) error {
		cp := r
		cp.Payload = append([]byte(nil), r.Payload...)
		recs = append(recs, cp)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Fsync: seglog.SyncAlways})
	appendN(t, w, 25)
	recs := replayAll(t, w)
	if len(recs) != 25 {
		t.Fatalf("replayed %d records, want 25", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
		if want := fmt.Sprintf("record-%04d", i); string(r.Payload) != want {
			t.Fatalf("record %d: payload %q, want %q", i, r.Payload, want)
		}
		if r.Type != RecBlock {
			t.Fatalf("record %d: type %d, want %d", i, r.Type, RecBlock)
		}
	}
	if got := w.LastSeq(); got != 25 {
		t.Fatalf("LastSeq = %d, want 25", got)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Fsync: seglog.SyncAlways})
	appendN(t, w, 10)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := openT(t, dir, Options{Fsync: seglog.SyncAlways})
	if got := w2.LastSeq(); got != 10 {
		t.Fatalf("LastSeq after reopen = %d, want 10", got)
	}
	seq, err := w2.Append(RecHead, []byte("x"))
	if err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if seq != 11 {
		t.Fatalf("next seq = %d, want 11", seq)
	}
	if recs := replayAll(t, w2); len(recs) != 11 {
		t.Fatalf("replayed %d records, want 11", len(recs))
	}
}

func TestSegmentRotationAndContinuity(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record (~30 bytes framed) forces rotations.
	w := openT(t, dir, Options{Fsync: seglog.SyncAlways, SegmentSize: 128})
	appendN(t, w, 50)
	st := w.Stats()
	if st.Rotations == 0 {
		t.Fatalf("expected segment rotations, got 0 (stats %+v)", st)
	}
	if st.Segments < 2 {
		t.Fatalf("expected >= 2 segments, got %d", st.Segments)
	}
	// Sequence numbers must be contiguous across all segment boundaries.
	recs := replayAll(t, w)
	if len(recs) != 50 {
		t.Fatalf("replayed %d records, want 50", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("discontinuity at %d: seq %d", i, r.Seq)
		}
	}
	// And survive a reopen.
	w.Close()
	w2 := openT(t, dir, Options{Fsync: seglog.SyncAlways, SegmentSize: 128})
	if got := len(replayAll(t, w2)); got != 50 {
		t.Fatalf("after reopen: %d records, want 50", got)
	}
}

// TestCrashModesTruncateToPrefix drives each failpoint mode and asserts
// that reopening the directory recovers exactly the records appended
// before the crash — the log is always a valid prefix.
func TestCrashModesTruncateToPrefix(t *testing.T) {
	for _, mode := range []seglog.FailMode{seglog.FailCut, seglog.FailTorn, seglog.FailGarble} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			w := openT(t, dir, Options{Fsync: seglog.SyncAlways})
			appendN(t, w, 7)
			w.SetFailpoint(mode, 1) // crash on the next append
			if _, err := w.Append(RecBlock, []byte("doomed")); !errors.Is(err, seglog.ErrCrashed) {
				t.Fatalf("append at failpoint: err = %v, want seglog.ErrCrashed", err)
			}
			if !w.Crashed() {
				t.Fatal("Crashed() = false after failpoint fired")
			}
			// The WAL is latched: every later write fails like a dead process.
			if _, err := w.Append(RecBlock, []byte("more")); !errors.Is(err, seglog.ErrCrashed) {
				t.Fatalf("append after crash: err = %v, want seglog.ErrCrashed", err)
			}
			if err := w.Sync(); !errors.Is(err, seglog.ErrCrashed) {
				t.Fatalf("sync after crash: err = %v, want seglog.ErrCrashed", err)
			}
			w.Close()

			w2 := openT(t, dir, Options{Fsync: seglog.SyncAlways})
			recs := replayAll(t, w2)
			if len(recs) != 7 {
				t.Fatalf("mode %s: recovered %d records, want 7", mode, len(recs))
			}
			if mode != seglog.FailCut && w2.Stats().TornTruncated == 0 {
				t.Fatalf("mode %s: expected TornTruncated > 0", mode)
			}
			// The repaired log accepts new appends at the right seq.
			seq, err := w2.Append(RecBlock, []byte("after repair"))
			if err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			if seq != 8 {
				t.Fatalf("seq after repair = %d, want 8", seq)
			}
		})
	}
}

// TestFailpointNthAppend verifies the trigger counts appends from
// arming, 1-based.
func TestFailpointNthAppend(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Fsync: seglog.SyncAlways})
	w.SetFailpoint(seglog.FailTorn, 3)
	for i := 0; i < 2; i++ {
		if _, err := w.Append(RecBlock, []byte("ok")); err != nil {
			t.Fatalf("append %d before trigger: %v", i, err)
		}
	}
	if _, err := w.Append(RecBlock, []byte("boom")); !errors.Is(err, seglog.ErrCrashed) {
		t.Fatalf("3rd append: err = %v, want seglog.ErrCrashed", err)
	}
}

// TestMidLogCorruptionDropsSuffix garbles a byte in an early segment and
// verifies Open truncates there and deletes every later segment.
func TestMidLogCorruptionDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Fsync: seglog.SyncAlways, SegmentSize: 128})
	appendN(t, w, 40)
	if w.Stats().Segments < 3 {
		t.Fatalf("need >= 3 segments for this test, got %d", w.Stats().Segments)
	}
	w.Close()

	// Flip one byte in the middle of the FIRST segment's record area.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
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

	w2 := openT(t, dir, Options{Fsync: seglog.SyncAlways, SegmentSize: 128})
	recs := replayAll(t, w2)
	if len(recs) != 0 {
		t.Fatalf("recovered %d records after first-record corruption, want 0", len(recs))
	}
	if w2.Stats().Segments != 1 {
		t.Fatalf("later segments not removed: %d live", w2.Stats().Segments)
	}
	if w2.Stats().TornTruncated == 0 {
		t.Fatal("expected TornTruncated > 0")
	}
}

func TestFsyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		w := openT(t, t.TempDir(), Options{Fsync: seglog.SyncAlways})
		appendN(t, w, 5)
		if got := w.Stats().Fsyncs; got != 5 {
			t.Fatalf("fsyncs = %d, want 5 (one per append)", got)
		}
	})
	t.Run("never", func(t *testing.T) {
		w := openT(t, t.TempDir(), Options{Fsync: seglog.SyncNever})
		appendN(t, w, 5)
		if got := w.Stats().Fsyncs; got != 0 {
			t.Fatalf("fsyncs = %d, want 0", got)
		}
	})
	t.Run("interval", func(t *testing.T) {
		now := time.Unix(1000, 0)
		w := openT(t, t.TempDir(), Options{
			Fsync:      seglog.SyncInterval,
			FsyncEvery: time.Second,
			Clock:      func() time.Time { return now },
		})
		appendN(t, w, 5) // clock frozen: no interval elapsed
		if got := w.Stats().Fsyncs; got != 0 {
			t.Fatalf("fsyncs with frozen clock = %d, want 0", got)
		}
		now = now.Add(time.Second)
		appendN(t, w, 1) // interval elapsed: this append syncs
		if got := w.Stats().Fsyncs; got != 1 {
			t.Fatalf("fsyncs after interval = %d, want 1", got)
		}
		appendN(t, w, 3) // clock frozen again
		if got := w.Stats().Fsyncs; got != 1 {
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
	w := openT(t, t.TempDir(), Options{})
	if _, err := w.Append(RecBlock, make([]byte, MaxRecordLen)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: err = %v, want ErrTooLarge", err)
	}
	w.Close()
	if _, err := w.Append(RecBlock, []byte("x")); !errors.Is(err, seglog.ErrClosed) {
		t.Fatalf("append after close: err = %v, want seglog.ErrClosed", err)
	}
	if err := w.Sync(); !errors.Is(err, seglog.ErrClosed) {
		t.Fatalf("sync after close: err = %v, want seglog.ErrClosed", err)
	}
}

func TestPruneBefore(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Fsync: seglog.SyncAlways, SegmentSize: 128})
	appendN(t, w, 40)
	before := w.Stats().Segments
	if before < 3 {
		t.Fatalf("need >= 3 segments, got %d", before)
	}
	last := w.LastSeq()
	removed, err := w.PruneBefore(last)
	if err != nil {
		t.Fatalf("PruneBefore: %v", err)
	}
	if removed == 0 {
		t.Fatal("PruneBefore removed nothing")
	}
	if got := w.Stats().Segments; got != before-removed {
		t.Fatalf("segments = %d, want %d", got, before-removed)
	}
	// The surviving suffix must still be a valid log ending at last.
	recs := replayAll(t, w)
	if len(recs) == 0 || recs[len(recs)-1].Seq != last {
		t.Fatalf("pruned log ends at %v, want last seq %d", recs, last)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("discontinuity after prune at %d", i)
		}
	}
	// Reopen continues from the same sequence.
	w.Close()
	w2 := openT(t, dir, Options{Fsync: seglog.SyncAlways, SegmentSize: 128})
	if got := w2.LastSeq(); got != last {
		t.Fatalf("LastSeq after prune+reopen = %d, want %d", got, last)
	}
}

func TestEmptyLogOpenClose(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{})
	if got := w.LastSeq(); got != 0 {
		t.Fatalf("LastSeq of empty log = %d, want 0", got)
	}
	if recs := replayAll(t, w); len(recs) != 0 {
		t.Fatalf("empty log replayed %d records", len(recs))
	}
	w.Close()
	// Reopen the (empty but header-bearing) log.
	w2 := openT(t, dir, Options{})
	if got := w2.LastSeq(); got != 0 {
		t.Fatalf("LastSeq after reopen = %d, want 0", got)
	}
	if seq, err := w2.Append(RecBlock, []byte("first")); err != nil || seq != 1 {
		t.Fatalf("first append = %d, %v; want 1, nil", seq, err)
	}
}
