// Package seglog is the one segment log under both durable stores of a
// peer, the write-ahead log (internal/wal) and the trie-node store
// (internal/nodestore): segment files, CRC32C frames, the open-time
// scan and repair, rotation, the sync policies, read handles, atomic
// side files and the crash failpoint. docs/PERSISTENCE.md ("Segment
// log") is the reference; frame.go has the byte layout.
//
// Opening is explicit steps because the stores differ in exactly one:
// Open lists the segments and touches nothing, ScanSegments reports the
// first damaged (segment, offset), the caller decides whether that is
// repairable (the WAL: anywhere; the node store: only in the newest
// segment), Repair cuts the log there, Activate opens it for appending.
//
// A Log has no lock of its own: each store already serializes writers
// on one mutex (the log is the commit order) and calls the Log under
// it. Handles from Reader may be read concurrently.
package seglog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Log errors, matchable with errors.Is.
var (
	// ErrClosed is returned by writes after Close.
	ErrClosed = errors.New("seglog: closed")
	// ErrCrashed is returned by every write after the failpoint fired.
	ErrCrashed = errors.New("seglog: crashed (failpoint fired)")
	// ErrDamaged marks an invalid frame or segment header; a scan
	// callback returns it to reject a frame the store cannot accept.
	ErrDamaged = errors.New("seglog: damaged frame")
	// ErrReplaced is a scan's refusal of a segment in a format the
	// store's replaced (Format.Replaced); the error names the segment and
	// its magic.
	ErrReplaced = errors.New("seglog: segment of the replaced format")
)

// DefaultSyncEvery is the flush cadence of the interval sync policy.
const DefaultSyncEvery = 100 * time.Millisecond

// SyncPolicy selects when appended data is forced to stable storage.
type SyncPolicy int

const (
	// SyncAlways syncs after every commit unit: nothing acknowledged is
	// ever lost, at the cost of one fsync per record or batch.
	SyncAlways SyncPolicy = iota
	// SyncInterval syncs at most once per DefaultSyncEvery, so a crash
	// loses at most the last interval's appends (still a clean log
	// prefix).
	SyncInterval
	// SyncNever leaves flushing to the OS: loses up to the whole page
	// cache on power failure (still a clean prefix on process crash).
	SyncNever
)

var policyNames = [...]string{"always", "interval", "never"}

// String returns the flag-style name of the policy.
func (p SyncPolicy) String() string {
	if p >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses "always", "interval", or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	want := strings.ToLower(strings.TrimSpace(s))
	for p, name := range policyNames {
		if want == name {
			return SyncPolicy(p), nil
		}
	}
	return 0, fmt.Errorf("seglog: unknown sync policy %q (want always|interval|never)", s)
}

// Options configures a Log. Only the two stores set them.
type Options struct {
	// SegmentSize is the rotation threshold in bytes.
	SegmentSize int64
	// SealWhenFull picks the side of the threshold a segment's last
	// frame falls on. False (WAL): a frame that would carry the segment
	// past SegmentSize opens a new one first. True (node store): a
	// segment is sealed once it has reached SegmentSize, so its last
	// frame may overshoot. Where a segment ends is on-disk bytes, and
	// both stores' bytes are pinned (TestOnDiskGolden), so each keeps
	// the side it has always had.
	SealWhenFull bool
	Sync         SyncPolicy       // applied by MaybeSync (default SyncAlways)
	Clock        func() time.Time // for the interval policy (nil = wall clock)
}

// Stats is the one counter set both stores report from.
type Stats struct {
	Appends   uint64 // frames appended this session
	Bytes     uint64 // frame bytes appended this session
	Syncs     uint64 // segment-file fsyncs (policy, seal-on-rotate, explicit, close)
	DirSyncs  uint64 // directory fsyncs (segment create/remove, repair)
	Rotations uint64 // segments sealed this session
	Segments  int    // live segment files
	TornBytes uint64 // bytes discarded by Repair
}

// Damage locates the first invalid byte a Scan met: everything before
// Off in segment Seg, and every earlier segment, is a valid log.
type Damage struct {
	Seg uint64
	Off int64
}

// Log is a segmented append-only log; see the package comment for the
// locking contract.
type Log struct {
	dir  string
	f    Format
	opts Options

	segments  []uint64 // live segment indexes, ascending
	active    *os.File
	activeIdx uint64
	size      int64               // bytes in the active segment
	readers   map[uint64]*os.File // read handles of sealed segments
	lastSync  time.Time
	closed    bool
	crashed   bool
	fp        failpoint
	stats     Stats
}

// Open creates dir if needed and lists its segments. Nothing is read,
// repaired or opened for writing: ScanSegments, Repair and Activate follow.
func Open(dir string, f Format, opts Options) (*Log, error) {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: mkdir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: readdir: %w", err)
	}
	l := &Log{dir: dir, f: f, opts: opts, readers: make(map[uint64]*os.File)}
	for _, e := range entries {
		var idx uint64
		if _, err := fmt.Sscanf(e.Name(), f.Prefix+"%d.seg", &idx); err == nil && f.SegmentName(idx) == e.Name() {
			l.segments = append(l.segments, idx)
		}
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i] < l.segments[j] })
	return l, nil
}

func (l *Log) path(seg uint64) string { return filepath.Join(l.dir, l.f.SegmentName(seg)) }

// Segments returns the live segment indexes, ascending; the last one is
// the active segment.
func (l *Log) Segments() []uint64 { return append([]uint64(nil), l.segments...) }

// ScanSegment walks one segment file; see Format.Scan.
func (l *Log) ScanSegment(seg uint64, header func(ext []byte) error, frame func(off int64, body []byte) error) (valid int64, err error) {
	file, err := os.Open(l.path(seg))
	if err != nil {
		return 0, fmt.Errorf("seglog: open segment: %w", err)
	}
	defer file.Close()
	valid, err = l.f.Scan(file, header, frame)
	if errors.Is(err, ErrReplaced) {
		err = fmt.Errorf("%s: %w", l.f.SegmentName(seg), err)
	}
	return valid, err
}

// ScanSegments walks segments segs in order and reports the first damage
// (nil: they are valid). It only locates; Repair acts. A non-nil error is
// a failed read or a callback's own error: the state of the log is then
// unknown and nothing may be repaired. It opens the segments by name and
// reads no state of the log, so a store that listed them (Segments) under
// its lock may scan without it.
func (l *Log) ScanSegments(segs []uint64, header func(ext []byte) error, frame func(seg uint64, off int64, body []byte) error) (*Damage, error) {
	for _, seg := range segs {
		valid, err := l.ScanSegment(seg, header, func(off int64, body []byte) error { return frame(seg, off, body) })
		if errors.Is(err, ErrDamaged) {
			return &Damage{Seg: seg, Off: valid}, nil
		}
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// Repair cuts the log at d: the damaged segment is truncated to its
// valid prefix (removed when not even its header survives) and every
// later segment is removed. Call before Activate.
func (l *Log) Repair(d Damage) error {
	for i := len(l.segments) - 1; i >= 0 && l.segments[i] >= d.Seg; i-- {
		path, cut := l.path(l.segments[i]), int64(0)
		if l.segments[i] == d.Seg && d.Off >= int64(l.f.HeaderLen()) {
			cut = d.Off
		}
		st, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("seglog: repair: %w", err)
		}
		l.stats.TornBytes += uint64(st.Size() - cut)
		if cut > 0 {
			err = truncateSync(path, cut)
		} else {
			err = os.Remove(path)
			l.segments = l.segments[:i]
		}
		if err != nil {
			return fmt.Errorf("seglog: repair: %w", err)
		}
	}
	return l.syncDir()
}

func truncateSync(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// Activate opens the newest segment for appending, creating segment 1
// with header extension ext when the log is empty.
func (l *Log) Activate(ext []byte) error {
	l.lastSync = l.opts.Clock()
	if len(l.segments) == 0 {
		return l.createSegment(1, ext)
	}
	idx := l.segments[len(l.segments)-1]
	f, err := os.OpenFile(l.path(idx), os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("seglog: open active segment: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("seglog: seek: %w", err)
	}
	l.active, l.activeIdx, l.size = f, idx, size
	return nil
}

// createSegment creates and activates segment idx. The previous active
// segment is sealed with an fsync first, so only the newest segment can
// ever carry a torn tail; the directory is fsynced after, so a record
// acknowledged into the new segment has a durable directory entry.
func (l *Log) createSegment(idx uint64, ext []byte) error {
	if len(ext) != l.f.ExtLen {
		return fmt.Errorf("seglog: header extension is %d bytes, format wants %d", len(ext), l.f.ExtLen)
	}
	f, err := os.OpenFile(l.path(idx), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: create segment: %w", err)
	}
	if _, err := f.Write(append([]byte(l.f.Magic), ext...)); err != nil {
		f.Close()
		return fmt.Errorf("seglog: write segment header: %w", err)
	}
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("seglog: sync on rotate: %w", err)
		}
		l.stats.Syncs++
		l.active.Close() // sealed and synced; Reader reopens it read-only on demand
		l.stats.Rotations++
	}
	l.active, l.activeIdx, l.size = f, idx, int64(l.f.HeaderLen())
	l.segments = append(l.segments, idx)
	return l.syncDir()
}

func (l *Log) syncDir() error {
	l.stats.DirSyncs++
	return syncDir(l.dir)
}

// syncDir fsyncs a directory so creations, renames and removals in it
// survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("seglog: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("seglog: sync dir: %w", err)
	}
	return nil
}

// Append writes one frame (built by AppendFrame) and returns where it
// landed. ext is the header extension of the new segment should this
// append open one. A frame never spans segments, and a segment is never
// sealed empty, so a frame larger than SegmentSize still lands. Nothing
// is synced: call MaybeSync once per commit unit (the WAL after every
// record, the node store after every batch).
func (l *Log) Append(frame, ext []byte) (seg uint64, off int64, err error) {
	if l.crashed {
		return 0, 0, ErrCrashed
	}
	if l.closed {
		return 0, 0, ErrClosed
	}
	if l.Lands(len(frame)) != l.activeIdx {
		if err := l.createSegment(l.activeIdx+1, ext); err != nil {
			return 0, 0, err
		}
	}
	if l.fp.mode != FailNone && l.fireFailpoint(frame) {
		return 0, 0, ErrCrashed
	}
	if _, err := l.active.Write(frame); err != nil {
		return 0, 0, fmt.Errorf("seglog: append: %w", err)
	}
	seg, off = l.activeIdx, l.size
	l.size += int64(len(frame))
	l.stats.Appends++
	l.stats.Bytes += uint64(len(frame))
	return seg, off, nil
}

// Lands returns the segment a frame of n bytes appended now would land
// in: the active one, or the next when the frame opens it.
func (l *Log) Lands(n int) uint64 {
	full := l.size+int64(n) > l.opts.SegmentSize
	if l.opts.SealWhenFull {
		full = l.size >= l.opts.SegmentSize
	}
	if full && l.size > int64(l.f.HeaderLen()) {
		return l.activeIdx + 1
	}
	return l.activeIdx
}

// MaybeSync applies the configured sync policy after a commit unit.
func (l *Log) MaybeSync() error {
	if l.opts.Sync == SyncAlways ||
		l.opts.Sync == SyncInterval && l.opts.Clock().Sub(l.lastSync) >= DefaultSyncEvery {
		return l.Sync()
	}
	return nil
}

// Sync forces the active segment to stable storage.
func (l *Log) Sync() error {
	if l.crashed {
		return ErrCrashed
	}
	if l.closed {
		return ErrClosed
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("seglog: fsync: %w", err)
	}
	l.stats.Syncs++
	l.lastSync = l.opts.Clock()
	return nil
}

// Reader returns a handle for positioned reads of segment seg (the
// active segment reads through its write handle). The handle stays
// readable after the segment is removed but is closed by Remove,
// rotation or Close: a caller reading outside the store's lock retries
// once through a fresh Reader call when a read fails.
func (l *Log) Reader(seg uint64) (io.ReaderAt, error) {
	if l.active != nil && seg == l.activeIdx {
		return l.active, nil
	}
	if f, ok := l.readers[seg]; ok {
		return f, nil
	}
	f, err := os.Open(l.path(seg))
	if err != nil {
		return nil, fmt.Errorf("seglog: open segment: %w", err)
	}
	l.readers[seg] = f
	return f, nil
}

// Remove deletes sealed segment seg and makes the removal durable.
func (l *Log) Remove(seg uint64) error {
	i := sort.Search(len(l.segments), func(i int) bool { return l.segments[i] >= seg })
	if i >= len(l.segments)-1 || l.segments[i] != seg {
		return fmt.Errorf("seglog: segment %d is not a sealed segment", seg)
	}
	if f, ok := l.readers[seg]; ok {
		f.Close() // read-only handle: nothing to lose
		delete(l.readers, seg)
	}
	if err := os.Remove(l.path(seg)); err != nil {
		return fmt.Errorf("seglog: remove segment: %w", err)
	}
	l.segments = append(l.segments[:i], l.segments[i+1:]...)
	return l.syncDir()
}

// Close flushes (unless crashed) and closes the log. Closing twice is
// harmless.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	for seg, f := range l.readers {
		f.Close() // read-only handles
		delete(l.readers, seg)
	}
	if l.active == nil {
		return nil
	}
	var err error
	if !l.crashed {
		if err = l.active.Sync(); err == nil {
			l.stats.Syncs++
		}
	}
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}

// Closed reports whether Close has been called.
func (l *Log) Closed() bool { return l.closed }

// Stats returns a snapshot of the counters.
func (l *Log) Stats() Stats {
	s := l.stats
	s.Segments = len(l.segments)
	return s
}
