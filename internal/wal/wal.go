// Package wal implements the durability layer of a peer: an append-only
// write-ahead log of sequence-numbered records plus a persistent
// block-store backend (DurableStore) that journals connected blocks and
// head switches and periodically checkpoints the head state.
//
// The log is the commit point of the ledger: a block is durable once
// its record hits the WAL (subject to the configured fsync policy), and
// crash recovery replays the log — accelerated by the newest valid
// checkpoint — to reconstruct the exact pre-crash chain, or a verified
// prefix of it when the tail of the log was torn or garbled by the
// crash.
//
// Segments, frames, rotation, repair, the fsync policies, atomic
// checkpoint files and the crash failpoint are internal/seglog's. This
// package owns what is the WAL's alone: the record body (u64 seq + u8
// type + payload), sequence continuity as the test a scanned frame must
// pass, the rule that damage anywhere truncates the log there and drops
// everything after it, and the prune floor. The DurableStore journals
// blocks compressed (RecBlock, through internal/lz), each block's storage
// form against the block records before it in the same window and its
// signatures raw behind it, and inflates them wherever a block record is
// read; its checkpoint files are compressed too. See docs/PERSISTENCE.md.
//
// Concurrency: a WAL serializes all appends on one mutex by design —
// the log IS the ordering of commits, so writers must queue. All file
// I/O happens in *Locked helpers following the repo's lock-hygiene
// convention (the critical section is the single-writer append path,
// not a shared fast path).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"dcsledger/internal/seglog"
)

// Format constants.
const (
	// segMagic opens every segment file (8 bytes, versioned). A
	// directory of DCSWAL01 segments (the encoding before compact keys
	// and signatures) or DCSWAL02 ones (block records compressing the
	// canonical encoding, signatures and all) is refused.
	segMagic = "DCSWAL03"
	// recordHeaderLen is u64 seq + u8 type inside the framed body.
	recordHeaderLen = 9
	// MaxRecordLen bounds one record body so a garbled length field
	// cannot force a huge allocation during recovery.
	MaxRecordLen = 32 << 20
)

// format is the WAL's segment file format: wal-XXXXXXXX.seg, the header
// extended by the sequence number of the segment's first record.
var format = seglog.Format{Prefix: "wal-", Magic: segMagic, ExtLen: 8, MaxBody: MaxRecordLen, Replaced: []string{"DCSWAL01", "DCSWAL02"}}

// DefaultSegmentSize is the rotation threshold for segment files.
const DefaultSegmentSize = 4 << 20

// noPruneFloor marks a WAL whose prune floor was never armed: a raw
// WAL (no DurableStore in front) keeps the historical behavior where
// PruneBefore honors the caller's seq unclamped.
const noPruneFloor = ^uint64(0)

// ErrTooLarge rejects records over MaxRecordLen; matchable with errors.Is.
var ErrTooLarge = errors.New("wal: record too large")

// FsyncPolicy and ParseFsyncPolicy are the last of the names this package
// had before internal/seglog owned the fsync policies, the failpoint modes
// and their errors. Everything in this module names seglog directly; these
// two stay because benchmark/replay.go calls them, and go with it
// (ROADMAP item 1).
type FsyncPolicy = seglog.SyncPolicy

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return seglog.ParseSyncPolicy(s) }

// Options configures a WAL.
type Options struct {
	// SegmentSize rotates the active segment once it exceeds this many
	// bytes (0 = DefaultSegmentSize).
	SegmentSize int64
	// Fsync is the flush policy (default seglog.SyncAlways).
	Fsync FsyncPolicy
	// FsyncEvery is the interval policy's cadence (0 = seglog.DefaultSyncEvery).
	FsyncEvery time.Duration
	// Clock supplies the time source for the interval policy (nil =
	// wall clock). Injected by tests.
	Clock func() time.Time
}

// Record is one entry of the log. Seq numbers are assigned by Append,
// strictly increasing and contiguous; recovery uses them to detect
// mid-log corruption and to anchor checkpoints.
type Record struct {
	Seq     uint64
	Type    byte
	Payload []byte
}

// Loc is where one record's frame lies in the log: what ReadAt needs
// to read it back. It is 16 bytes because the block store keeps one for
// every block of the chain.
type Loc struct {
	Seg uint32 // segment index
	Len uint32 // frame length, header included (a record is at most MaxRecordLen)
	Off int64  // offset of the frame in the segment
}

// Stats is a snapshot of the WAL's activity counters.
type Stats struct {
	Appends       uint64 // records successfully appended this session
	Fsyncs        uint64 // explicit fsyncs issued on segment files
	Rotations     uint64 // segment rotations this session
	Segments      int    // live segment files
	Bytes         uint64 // payload+frame bytes written this session
	TornTruncated uint64 // bytes discarded by torn-tail truncation at Open
	LastSeq       uint64 // sequence number of the newest durable record
}

// WAL is a segmented append-only log. Safe for concurrent use.
type WAL struct {
	// The mutex serializes appends: the WAL is the ledger's commit
	// ordering, so there is exactly one writer at a time by design.
	mu         sync.Mutex
	log        *seglog.Log
	nextSeq    uint64
	pruneFloor uint64 // newest seq pruning may reach (noPruneFloor = unclamped)
}

// Open opens (or creates) the log in dir, scanning existing segments
// for a torn or garbled tail. Everything from the first invalid frame
// onward — including any later segments — is truncated, so the surviving
// log is always a valid, contiguous prefix of what was written.
func Open(dir string, opts Options) (*WAL, error) { return open(dir, opts, nil) }

// open is Open with a callback that receives every record of the
// surviving prefix during the one scan opening needs anyway (see scan
// for what it may do with a Payload).
func open(dir string, opts Options, fn func(Record, Loc) error) (*WAL, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	l, err := seglog.Open(dir, format, seglog.Options{
		SegmentSize: opts.SegmentSize,
		Sync:        opts.Fsync,
		SyncEvery:   opts.FsyncEvery,
		Clock:       opts.Clock,
	})
	if err != nil {
		return nil, err
	}
	w := &WAL{log: l, pruneFloor: noPruneFloor}
	// Appends resume at the seq the scan expected next (for a pruned log
	// whose one segment holds no record yet, its header's first seq).
	next, damage, err := w.scan(l.Segments(), fn)
	if err != nil {
		return nil, err
	}
	if damage != nil {
		if err := l.Repair(*damage); err != nil {
			return nil, err
		}
	}
	w.nextSeq = max(next, 1)
	if err := l.Activate(seqExt(w.nextSeq)); err != nil {
		return nil, err
	}
	return w, nil
}

// seqExt renders a segment's header extension: the seq of its first
// record.
func seqExt(seq uint64) []byte { return binary.BigEndian.AppendUint64(nil, seq) }

// scan walks segments segs enforcing sequence continuity — within a
// segment, and from each segment's header to the record before it. A
// record or header out of sequence is damage at that point, like a
// failed CRC. fn, when non-nil, receives every accepted record and where
// it lies; the Payload is the scanner's buffer, valid only during the
// call. next is the seq the scan expected when it stopped (0 for a log
// without segments). Nothing here reads the log's state: no lock needed.
func (w *WAL) scan(segs []uint64, fn func(Record, Loc) error) (next uint64, damage *seglog.Damage, err error) {
	damage, err = w.log.ScanSegments(segs,
		func(ext []byte) error {
			first := binary.BigEndian.Uint64(ext)
			if next != 0 && first != next {
				return seglog.ErrDamaged
			}
			next = first
			return nil
		},
		func(seg uint64, off int64, body []byte) error {
			rec, ok := decodeRecord(body)
			if !ok || rec.Seq != next {
				return seglog.ErrDamaged
			}
			next++
			if fn == nil {
				return nil
			}
			return fn(rec, Loc{Seg: uint32(seg), Len: uint32(seglog.FrameHeaderLen + len(body)), Off: off})
		})
	return next, damage, err
}

// Append writes one record and returns its sequence number. Durability
// depends on the fsync policy; ordering is total regardless.
func (w *WAL) Append(typ byte, payload []byte) (uint64, error) {
	seq, _, err := w.AppendAt(typ, payload)
	return seq, err
}

// AppendAt is Append that also reports where the record landed, for a
// later ReadAt.
func (w *WAL) AppendAt(typ byte, payload []byte) (uint64, Loc, error) {
	if len(payload) > MaxRecordLen-recordHeaderLen {
		return 0, Loc{}, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	seq := w.nextSeq
	frame := encodeFrame(Record{Seq: seq, Type: typ, Payload: payload})
	// Should this record open a new segment, seq is that segment's
	// first: a record never spans segments.
	seg, off, err := w.log.Append(frame, seqExt(seq))
	if err != nil {
		return 0, Loc{}, err
	}
	w.nextSeq = seq + 1
	if err := w.log.MaybeSync(); err != nil {
		return 0, Loc{}, err
	}
	return seq, Loc{Seg: uint32(seg), Len: uint32(len(frame)), Off: off}, nil
}

// lands returns the segment a record of payloadLen bytes appended now
// would land in.
func (w *WAL) lands(payloadLen int) uint32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return uint32(w.log.Lands(seglog.FrameHeaderLen + recordHeaderLen + payloadLen))
}

// ReadAt reads back the record at a location AppendAt or a scan
// reported, CRC-checked. It works for the active segment too: a record
// is readable as soon as it is written, synced or not. The read itself
// runs outside the lock; a handle closed under it by a rotation is
// reopened once.
func (w *WAL) ReadAt(at Loc) (Record, error) {
	for attempt := 0; ; attempt++ {
		w.mu.Lock()
		if w.log.Closed() {
			w.mu.Unlock()
			return Record{}, seglog.ErrClosed
		}
		f, err := w.log.Reader(uint64(at.Seg))
		w.mu.Unlock()
		if err != nil {
			return Record{}, err
		}
		body, err := seglog.ReadFrameAt(f, at.Off, int(at.Len))
		if err == nil {
			rec, ok := decodeRecord(body)
			if !ok {
				return Record{}, fmt.Errorf("%w: short record body", seglog.ErrDamaged)
			}
			return rec, nil
		}
		if errors.Is(err, seglog.ErrDamaged) || attempt > 0 {
			return Record{}, err
		}
	}
}

// Sync forces the active segment to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Sync()
}

// Close flushes (unless crashed) and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Close()
}

// Replay streams every record of the log in order; each Payload is the
// callback's to keep. Call before concurrent appends begin (typically
// right after Open); the scan reads the segment files directly.
func (w *WAL) Replay(fn func(Record) error) error {
	return w.replay(func(r Record, _ Loc) error {
		r.Payload = append([]byte(nil), r.Payload...) // the scanner reuses its buffer
		return fn(r)
	})
}

// replay is Replay with locations and without the copy: a Payload is
// valid only during the callback. The lock is held only to list the
// segments, so the callback may read the log back (ReadAt).
func (w *WAL) replay(fn func(Record, Loc) error) error {
	w.mu.Lock()
	segs := w.log.Segments()
	w.mu.Unlock()
	// Open already repaired the log; damage here means a file changed
	// underneath us, and replay stops at the valid prefix.
	_, _, err := w.scan(segs, fn)
	return err
}

// LastSeq returns the sequence number of the newest appended record
// (0 for an empty log).
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq - 1
}

// Stats returns a snapshot of the activity counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	ls := w.log.Stats()
	return Stats{
		Appends:       ls.Appends,
		Fsyncs:        ls.Syncs,
		Rotations:     ls.Rotations,
		Segments:      ls.Segments,
		Bytes:         ls.Bytes,
		TornTruncated: ls.TornBytes,
		LastSeq:       w.nextSeq - 1,
	}
}

// SetPruneFloor arms (or raises) the prune floor: from now on,
// PruneBefore will never drop a segment holding any record with a
// sequence number above the floor. The DurableStore arms the floor with
// the newest retained checkpoint's covered seq — records above it are
// the replay suffix recovery depends on, so they must outlive any
// prune. The floor is monotonic; calls that would lower it are ignored.
func (w *WAL) SetPruneFloor(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pruneFloor == noPruneFloor || seq > w.pruneFloor {
		w.pruneFloor = seq
	}
}

// PruneFloor returns the armed prune floor and whether one is set.
func (w *WAL) PruneFloor() (uint64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pruneFloor, w.pruneFloor != noPruneFloor
}

// PruneBefore removes whole segments all of whose records have
// sequence numbers <= seq. The active segment is never removed, and on
// a WAL with an armed prune floor (every DurableStore WAL) seq is
// clamped to the newest retained checkpoint's covered seq — segments
// the checkpoint does not cover are refused, however aggressive the
// request, so recovery can always replay the post-checkpoint suffix.
// Pruning forfeits the ability to rebuild history older than the
// checkpoint; recovery then re-roots the block tree at the checkpoint
// block (see docs/PERSISTENCE.md — the node does not prune
// automatically).
func (w *WAL) PruneBefore(seq uint64) (removed int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq > w.pruneFloor {
		seq = w.pruneFloor
	}
	for segs := w.log.Segments(); len(segs) > 1; segs = segs[1:] {
		// A segment is removable when the NEXT segment starts at or
		// before seq+1: every record in it is then <= seq. The next
		// segment's header says where it starts.
		ext, err := w.log.ReadHeader(segs[1])
		if err != nil {
			return removed, err
		}
		if binary.BigEndian.Uint64(ext) > seq+1 {
			break
		}
		if err := w.log.Remove(segs[0]); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// firstSegment returns the index of the oldest live segment.
func (w *WAL) firstSegment() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Segments()[0]
}

// SetFailpoint arms a deterministic crash on the nth Append after this
// call (see seglog.Log.SetFailpoint); tests reopen the directory to
// exercise recovery.
func (w *WAL) SetFailpoint(mode seglog.FailMode, nthAppend uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log.SetFailpoint(mode, nthAppend)
}

// Crashed reports whether the failpoint has fired.
func (w *WAL) Crashed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Crashed()
}
