package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testFormat has a 4-byte header extension so both header halves are
// exercised.
var testFormat = Format{Prefix: "t-", Magic: "SEGTEST1", ExtLen: 4, MaxBody: 1 << 10}

func accept([]byte) error             { return nil }
func acceptFrame(int64, []byte) error { return nil }

// segmentBytes renders a header plus one frame per body.
func segmentBytes(bodies ...string) []byte {
	b := append([]byte(testFormat.Magic), "ext0"...)
	for _, body := range bodies {
		b = AppendFrame(b, []byte(body))
	}
	return b
}

// openLog opens, scans, repairs any damage and activates, returning the
// bodies the scan accepted.
func openLog(t *testing.T, dir string, opts Options) (*Log, []string) {
	t.Helper()
	if opts.SegmentSize == 0 {
		opts.SegmentSize = 1 << 20
	}
	l, err := Open(dir, testFormat, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var bodies []string
	d, err := l.ScanSegments(l.Segments(), nil,
		func(_ uint64, _ int64, body []byte) error { bodies = append(bodies, string(body)); return nil })
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if d != nil {
		if err := l.Repair(*d); err != nil {
			t.Fatalf("Repair: %v", err)
		}
	}
	if err := l.Activate([]byte("ext0")); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, bodies
}

func appendBody(t *testing.T, l *Log, body string) (uint64, int64) {
	t.Helper()
	seg, off, err := l.Append(AppendFrame(nil, []byte(body)), []byte("ext0"))
	if err != nil {
		t.Fatalf("Append(%q): %v", body, err)
	}
	return seg, off
}

// failingReader serves data[:failAt] and then fails with errDisk.
type failingReader struct {
	data   []byte
	failAt int
	pos    int
}

var errDisk = errors.New("injected: input/output error")

func (r *failingReader) Read(p []byte) (int, error) {
	if r.pos >= r.failAt {
		return 0, errDisk
	}
	n := copy(p, r.data[r.pos:r.failAt])
	r.pos += n
	return n, nil
}

// TestScanReadErrorIsNotDamage: a read that fails — in the segment
// header, inside a frame header, inside a body, or exactly at a frame
// boundary — stops the scan with the read error, never with ErrDamaged,
// because damage is what repair truncates.
func TestScanReadErrorIsNotDamage(t *testing.T) {
	data := segmentBytes("first-body", "second-body")
	hdr := testFormat.HeaderLen()
	frame1 := FrameHeaderLen + len("first-body")
	for _, tc := range []struct {
		name      string
		failAt    int
		wantValid int64
	}{
		{"mid-segment-header", hdr - 3, 0},
		{"boundary-before-first-frame", hdr, int64(hdr)},
		{"mid-frame-header", hdr + 5, int64(hdr)},
		{"mid-body", hdr + FrameHeaderLen + 4, int64(hdr)},
		{"boundary-between-frames", hdr + frame1, int64(hdr + frame1)},
		{"mid-second-body", hdr + frame1 + FrameHeaderLen + 1, int64(hdr + frame1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			valid, err := testFormat.Scan(&failingReader{data: data, failAt: tc.failAt}, accept, acceptFrame)
			if !errors.Is(err, errDisk) {
				t.Fatalf("err = %v, want the injected read error", err)
			}
			if errors.Is(err, ErrDamaged) {
				t.Fatalf("read error reported as damage: %v", err)
			}
			if valid != tc.wantValid {
				t.Fatalf("valid = %d, want %d", valid, tc.wantValid)
			}
		})
	}
}

// TestScanClassifiesDamage: only a short file, a bad magic, an oversized
// length, a CRC mismatch or a rejected frame is damage; EOF exactly at a
// frame boundary is a clean end.
func TestScanClassifiesDamage(t *testing.T) {
	good := segmentBytes("first-body", "second-body")
	hdr := int64(testFormat.HeaderLen())
	frame1 := int64(FrameHeaderLen + len("first-body"))
	flip := func(b []byte, at int) []byte {
		out := append([]byte(nil), b...)
		out[at] ^= 0xFF
		return out
	}
	oversize := AppendFrame(segmentBytes("first-body"), make([]byte, testFormat.MaxBody+1))
	for _, tc := range []struct {
		name      string
		data      []byte
		wantValid int64
		damaged   bool
	}{
		{"clean", good, int64(len(good)), false},
		{"header-only", good[:hdr], hdr, false},
		{"empty-file", nil, 0, true},
		{"short-segment-header", good[:hdr-1], 0, true},
		{"bad-magic", flip(good, 0), 0, true},
		{"torn-frame-header", good[:hdr+frame1+3], hdr + frame1, true},
		{"torn-body", good[:len(good)-1], hdr + frame1, true},
		{"crc-mismatch", flip(good, len(good)-1), hdr + frame1, true},
		{"oversized-length", oversize, hdr + frame1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			valid, err := testFormat.Scan(bytes.NewReader(tc.data), accept, acceptFrame)
			if got := errors.Is(err, ErrDamaged); got != tc.damaged || (!tc.damaged && err != nil) {
				t.Fatalf("err = %v, want damaged=%v", err, tc.damaged)
			}
			if valid != tc.wantValid {
				t.Fatalf("valid = %d, want %d", valid, tc.wantValid)
			}
			if tc.wantValid < hdr {
				return // no header checks: there are no frames to hand Frames
			}
			// Frames, handed the bytes behind the header at once, passes
			// the same frames and finds the same damage.
			err = testFormat.Frames(tc.data[hdr:], hdr, func(off int64, _ []byte) error {
				if off >= tc.wantValid {
					t.Fatalf("Frames passed the frame at %d, past the valid %d", off, tc.wantValid)
				}
				return nil
			})
			if got := errors.Is(err, ErrDamaged); got != tc.damaged || (!tc.damaged && err != nil) {
				t.Fatalf("Frames: err = %v, want damaged=%v", err, tc.damaged)
			}
		})
	}

	t.Run("rejected-frame", func(t *testing.T) {
		valid, err := testFormat.Scan(bytes.NewReader(good), accept, func(_ int64, body []byte) error {
			if string(body) == "second-body" {
				return ErrDamaged
			}
			return nil
		})
		if !errors.Is(err, ErrDamaged) || valid != hdr+frame1 {
			t.Fatalf("valid = %d, err = %v; want damage at %d", valid, err, hdr+frame1)
		}
	})
	t.Run("callback-error-aborts", func(t *testing.T) {
		stop := errors.New("stop")
		_, err := testFormat.Scan(bytes.NewReader(good), accept, func(int64, []byte) error { return stop })
		if err != stop {
			t.Fatalf("err = %v, want the callback's own error", err)
		}
	})
}

func TestAppendScanReadAt(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{SegmentSize: 64})
	type loc struct {
		seg uint64
		off int64
		n   int
	}
	var locs []loc
	var want []string
	for i := 0; i < 12; i++ {
		body := fmt.Sprintf("record-%02d", i)
		seg, off := appendBody(t, l, body)
		locs = append(locs, loc{seg, off, FrameHeaderLen + len(body)})
		want = append(want, body)
	}
	if st := l.Stats(); st.Rotations < 3 || st.Segments != int(st.Rotations)+1 || st.Appends != 12 {
		t.Fatalf("stats %+v: want >= 3 rotations, 12 appends", st)
	}
	// Every frame, in sealed segments and the active one, reads back
	// through a ReadAt handle and checks through Frames.
	for i, lc := range locs {
		r, err := l.Reader(lc.seg)
		if err != nil {
			t.Fatalf("Reader(%d): %v", lc.seg, err)
		}
		frame := make([]byte, lc.n)
		if _, err := r.ReadAt(frame, lc.off); err != nil {
			t.Fatalf("ReadAt #%d: %v", i, err)
		}
		var got []string
		err = testFormat.Frames(frame, lc.off, func(off int64, body []byte) error {
			if off != lc.off {
				t.Fatalf("frame #%d at %d, appended at %d", i, off, lc.off)
			}
			got = append(got, string(body))
			return nil
		})
		if err != nil || len(got) != 1 || got[0] != want[i] {
			t.Fatalf("frame #%d reads back as %q, %v", i, got, err)
		}
	}
	// Bytes that end inside a frame are damage.
	frame := segmentBytes("abc")[testFormat.HeaderLen():]
	if err := testFormat.Frames(frame[:len(frame)-1], 0, acceptFrame); !errors.Is(err, ErrDamaged) {
		t.Fatalf("Frames of a frame cut short: %v, want ErrDamaged", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got := openLog(t, dir, Options{SegmentSize: 64})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reopened scan = %v, want %v", got, want)
	}
}

// TestRotationRule pins both sides of the one rotation rule: without
// SealWhenFull no segment exceeds SegmentSize; with it a segment is
// sealed only once it has reached SegmentSize, so it overshoots. A
// frame never spans segments either way, and a segment is never sealed
// empty.
func TestRotationRule(t *testing.T) {
	const segSize = 100
	frameLen := int64(FrameHeaderLen + len("0123456789abcdefghij")) // 28
	hdr := int64(testFormat.HeaderLen())
	for _, seal := range []bool{false, true} {
		t.Run(fmt.Sprintf("SealWhenFull=%v", seal), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openLog(t, dir, Options{SegmentSize: segSize, SealWhenFull: seal})
			for i := 0; i < 9; i++ {
				appendBody(t, l, "0123456789abcdefghij")
			}
			// hdr 12 + 3*28 = 96 <= 100 < 12 + 4*28 = 124.
			perSeg := int64(3)
			if seal {
				perSeg = 4
			}
			st, err := os.Stat(filepath.Join(dir, testFormat.SegmentName(1)))
			if err != nil || st.Size() != hdr+perSeg*frameLen {
				t.Fatalf("segment 1 is %d bytes, want %d (%v)", st.Size(), hdr+perSeg*frameLen, err)
			}
			// A frame bigger than a whole segment still lands in one
			// piece: in a segment of its own when frames may not cross
			// SegmentSize, as an overshoot when the last one may.
			big := string(bytes.Repeat([]byte{'B'}, 300))
			seg, off := appendBody(t, l, big)
			if alone := off == hdr; alone == seal {
				t.Fatalf("oversized frame landed at %d of segment %d", off, seg)
			}
			seg2, _ := appendBody(t, l, "after")
			if seg2 != seg+1 {
				t.Fatalf("frame after the oversized one in segment %d, want %d", seg2, seg+1)
			}
		})
	}
}

// TestSyncPolicyAndDirSyncs: MaybeSync follows the policy, rotation
// seals with one file fsync and one directory fsync, and directory
// fsyncs are counted apart so fsyncs per append do not change.
func TestSyncPolicyAndDirSyncs(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), Options{Sync: SyncAlways})
	base := l.Stats()
	if base.DirSyncs != 1 || base.Syncs != 0 {
		t.Fatalf("fresh log: %+v, want 1 dir sync (segment 1 created), 0 file syncs", base)
	}
	for i := 0; i < 5; i++ {
		appendBody(t, l, "x")
		if err := l.MaybeSync(); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Syncs != 5 || st.DirSyncs != 1 {
		t.Fatalf("always: %+v, want 5 file syncs and still 1 dir sync", st)
	}

	now := time.Unix(1000, 0)
	l, _ = openLog(t, t.TempDir(), Options{Sync: SyncInterval, SegmentSize: 40, Clock: func() time.Time { return now }})
	appendBody(t, l, "0123456789")
	if err := l.MaybeSync(); err != nil || l.Stats().Syncs != 0 {
		t.Fatalf("interval not elapsed: syncs = %d, err %v", l.Stats().Syncs, err)
	}
	now = now.Add(DefaultSyncEvery)
	if err := l.MaybeSync(); err != nil || l.Stats().Syncs != 1 {
		t.Fatalf("interval elapsed: syncs = %d, err %v", l.Stats().Syncs, err)
	}
	appendBody(t, l, "0123456789") // 12+18+18 > 40: rotates
	if st := l.Stats(); st.Rotations != 1 || st.Syncs != 2 || st.DirSyncs != 2 {
		t.Fatalf("after rotation: %+v, want 1 rotation, 2 file syncs, 2 dir syncs", st)
	}

	l, _ = openLog(t, t.TempDir(), Options{Sync: SyncNever})
	appendBody(t, l, "x")
	if err := l.MaybeSync(); err != nil || l.Stats().Syncs != 0 {
		t.Fatalf("never: syncs = %d, err %v", l.Stats().Syncs, err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "Interval": SyncInterval, " never ": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}

// TestRepairTruncatesAndDropsTheRest damages the middle segment of
// three: Scan reports where, and Repair keeps exactly the prefix.
func TestRepairTruncatesAndDropsTheRest(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{SegmentSize: 64})
	for i := 0; i < 9; i++ {
		appendBody(t, l, fmt.Sprintf("record-%02d", i)) // 17-byte frames, 3 per segment
	}
	if l.Stats().Segments != 3 {
		t.Fatalf("segments = %d, want 3", l.Stats().Segments)
	}
	l.Close()
	path := filepath.Join(dir, testFormat.SegmentName(2))
	data, _ := os.ReadFile(path)
	data[testFormat.HeaderLen()+17+FrameHeaderLen] ^= 0xFF // body of the 2nd frame in segment 2
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, testFormat, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	d, err := l2.ScanSegments(l2.Segments(), nil, func(uint64, int64, []byte) error { return nil })
	if err != nil || d == nil || d.Seg != 2 || d.Off != int64(testFormat.HeaderLen()+17) {
		t.Fatalf("Scan = %+v, %v; want damage in segment 2 at %d", d, err, testFormat.HeaderLen()+17)
	}
	// Scan only locates: nothing has been touched yet.
	if st, _ := os.Stat(path); st.Size() != int64(len(data)) {
		t.Fatal("Scan modified the damaged segment")
	}
	l2.Close()

	l3, got := openLog(t, dir, Options{SegmentSize: 64})
	if want := "[record-00 record-01 record-02 record-03]"; fmt.Sprint(got) != want {
		t.Fatalf("after repair: %v, want %s", got, want)
	}
	st := l3.Stats()
	wantTorn := uint64(2*17) + uint64(testFormat.HeaderLen()+3*17)
	if st.Segments != 2 || st.TornBytes != wantTorn {
		t.Fatalf("stats %+v, want 2 segments and %d torn bytes", st, wantTorn)
	}
	if _, err := os.Stat(filepath.Join(dir, testFormat.SegmentName(3))); !os.IsNotExist(err) {
		t.Fatalf("segment after the damage survived: %v", err)
	}
	if seg, _ := appendBody(t, l3, "after-repair"); seg != 2 {
		t.Fatalf("append after repair went to segment %d, want 2", seg)
	}
}

// TestReadHeaderAndRemove: Remove deletes a sealed segment durably and
// refuses the active one.
func TestReadHeaderAndRemove(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{SegmentSize: 40})
	for i := 0; i < 3; i++ {
		if _, _, err := l.Append(AppendFrame(nil, []byte("0123456789")), []byte(fmt.Sprintf("ex%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) != 3 {
		t.Fatalf("segments %v, want 3", segs)
	}
	before := l.Stats().DirSyncs
	if err := l.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); len(got) != 2 || got[0] != segs[1] || l.Stats().DirSyncs != before+1 {
		t.Fatalf("after Remove: segments %v, dir syncs %d", got, l.Stats().DirSyncs)
	}
	if err := l.Remove(segs[2]); err == nil {
		t.Fatal("Remove accepted the active segment")
	}
}

// TestFailpoint: each mode leaves what it says on disk, latches the log,
// and the reopened log is the frames before the crash.
func TestFailpoint(t *testing.T) {
	for _, mode := range []FailMode{FailCut, FailTorn, FailGarble} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openLog(t, dir, Options{})
			l.SetFailpoint(mode, 3)
			appendBody(t, l, "one")
			appendBody(t, l, "two")
			if _, _, err := l.Append(AppendFrame(nil, []byte("doomed")), []byte("ext0")); !errors.Is(err, ErrCrashed) {
				t.Fatalf("append at failpoint: %v, want ErrCrashed", err)
			}
			if !l.Crashed() {
				t.Fatal("Crashed() = false after the failpoint fired")
			}
			if _, _, err := l.Append(AppendFrame(nil, []byte("more")), []byte("ext0")); !errors.Is(err, ErrCrashed) {
				t.Fatalf("append after crash: %v, want ErrCrashed", err)
			}
			if err := l.Sync(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("sync after crash: %v, want ErrCrashed", err)
			}
			l.Close()
			l2, got := openLog(t, dir, Options{})
			if fmt.Sprint(got) != "[one two]" {
				t.Fatalf("recovered %v, want [one two]", got)
			}
			if torn := l2.Stats().TornBytes; (mode == FailCut) != (torn == 0) {
				t.Fatalf("mode %s: %d torn bytes", mode, torn)
			}
		})
	}
}

func TestClosedLog(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(AppendFrame(nil, []byte("x")), []byte("ext0")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestSideFiles: atomic publish, newest-Keep retention, and removal of
// a temp file a crash left between write and rename.
func TestSideFiles(t *testing.T) {
	dir := t.TempDir()
	sf := SideFiles{Dir: dir, Prefix: "ck-", Suffix: ".ck", Keep: 2}
	stale := sf.Path(7) + ".tmp"
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "unrelated.tmp")
	if err := os.WriteFile(other, []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{10, 30, 20} {
		if err := sf.Write(id, []byte(fmt.Sprintf("data-%d", id))); err != nil {
			t.Fatalf("Write(%d): %v", id, err)
		}
	}
	ids, err := sf.List()
	if err != nil || fmt.Sprint(ids) != "[20 30]" {
		t.Fatalf("List = %v, %v; want [20 30]", ids, err)
	}
	if got, err := os.ReadFile(sf.Path(30)); err != nil || string(got) != "data-30" {
		t.Fatalf("file 30 = %q, %v", got, err)
	}
	if filepath.Base(sf.Path(30)) != "ck-0000000000000030.ck" {
		t.Fatalf("name = %s", filepath.Base(sf.Path(30)))
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived: %v", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("unrelated file removed: %v", err)
	}
	// A failed publish leaves the previous files alone.
	bad := SideFiles{Dir: filepath.Join(dir, "missing"), Prefix: "ck-", Suffix: ".ck", Keep: 2}
	if err := bad.Write(1, []byte("x")); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
}
