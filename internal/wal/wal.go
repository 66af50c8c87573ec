// Package wal implements the durability layer of a peer: an append-only
// write-ahead log of sequence-numbered records plus a persistent
// block-store backend (DurableStore) that journals connected blocks and
// periodically checkpoints the head state. Head switches are not
// journaled: the head is the fork choice's answer over the blocks, and
// recovery recomputes it.
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
// pass, and the rule that damage anywhere — a record out of sequence or
// one recovery would not replay too — truncates the log there and drops
// everything after it, with every checkpoint that covers what it dropped.
//
// The DurableStore journals blocks compressed (RecBlock), each block's
// storage form, through internal/lz, against the block records before it in the same
// window and its signatures raw behind it, and inflates them wherever a
// block record is read. A window restarts at 128 block records, or before
// its storage forms would pass 128 KiB: what one read inflates at most.
// The checkpoint files are compressed too. See docs/PERSISTENCE.md.
//
// Concurrency: the DurableStore owns its segment log and serializes
// everything that touches it on its one mutex by design — the log IS
// the ordering of commits, so writers must queue. Helpers that run under
// it are named *Locked, or say so. A block read takes the mutex once, for
// its index lookup and its segment's read handle, and reads and inflates
// outside it: one read of the bytes from the first record of its window
// to the end of its own, whose frames it checks as the open-time scan
// does.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dcsledger/internal/seglog"
)

// Format constants.
const (
	// segMagic opens every segment file (8 bytes, versioned). A
	// directory of DCSWAL01 segments (the encoding before compact keys
	// and signatures), DCSWAL02 ones (block records compressing the
	// canonical encoding, signatures and all), DCSWAL03 ones (windows
	// of 16 block records, every head switch a record of its own) or
	// DCSWAL04 ones (a block and the head switch to it in one record of
	// type 3, which this scan would cut as a type it never writes) is
	// refused.
	segMagic = "DCSWAL05"
	// recordHeaderLen is u64 seq + u8 type inside the framed body.
	recordHeaderLen = 9
	// MaxRecordLen bounds one record body so a garbled length field
	// cannot force a huge allocation during recovery.
	MaxRecordLen = 32 << 20
)

// format is the WAL's segment file format: wal-XXXXXXXX.seg, the header
// extended by the sequence number of the segment's first record.
var format = seglog.Format{Prefix: "wal-", Magic: segMagic, ExtLen: 8, MaxBody: MaxRecordLen, Replaced: []string{"DCSWAL01", "DCSWAL02", "DCSWAL03", "DCSWAL04"}}

// DefaultSegmentSize is the rotation threshold for segment files.
const DefaultSegmentSize = 4 << 20

// ErrTooLarge rejects records over MaxRecordLen; matchable with errors.Is.
var ErrTooLarge = errors.New("wal: record too large")

// FsyncPolicy and ParseFsyncPolicy are the last of the names this package
// had before internal/seglog owned the fsync policies, the failpoint modes
// and their errors. Everything in this module names seglog directly; these
// two stay because benchmark/replay.go calls them, and go with it
// (ROADMAP item 1(b)).
type FsyncPolicy = seglog.SyncPolicy

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return seglog.ParseSyncPolicy(s) }

// Record is one entry of the log. Seq numbers are assigned at append,
// strictly increasing and contiguous; recovery uses them to detect
// mid-log corruption and to anchor checkpoints. Its body inside a seglog
// frame is, big-endian:
//
//	u64  seq
//	u8   type
//	[]   payload
type Record struct {
	Seq     uint64
	Type    byte
	Payload []byte
}

// appendFrame appends to dst the on-disk frame of one record.
func appendFrame(dst []byte, rec Record) []byte {
	var hdr [recordHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[:8], rec.Seq)
	hdr[8] = rec.Type
	return seglog.AppendFrame(dst, hdr[:], rec.Payload)
}

// decodeRecord parses a frame body; false if it is too short to hold a
// record header. Payload aliases body.
func decodeRecord(body []byte) (Record, bool) {
	if len(body) < recordHeaderLen {
		return Record{}, false
	}
	rec := Record{Seq: binary.BigEndian.Uint64(body[:8]), Type: body[8]}
	if len(body) > recordHeaderLen {
		rec.Payload = body[recordHeaderLen:]
	}
	return rec, true
}

// Loc is where a run of whole frames lies in the log: one record's frame,
// or, in the block store's index, the frames from the first record of a
// block's window to the end of the block's own. It is 16 bytes because the
// block store keeps one for every block of the chain.
type Loc struct {
	Seg uint32 // segment index
	Len uint32 // byte length, frame headers included (OpenStore keeps a segment under 4 GiB)
	Off int64  // offset of the first frame in the segment
}

// Stats is a snapshot of the WAL's activity counters.
type Stats struct {
	Appends       uint64 // records successfully appended this session
	Fsyncs        uint64 // explicit fsyncs issued on segment files
	Rotations     uint64 // segment rotations this session
	Segments      int    // live segment files
	Bytes         uint64 // payload+frame bytes written this session
	TornTruncated uint64 // bytes discarded by torn-tail truncation at open
	LastSeq       uint64 // sequence number of the newest durable record
}

// openLog opens (or creates) the log in dir, scanning existing segments
// for a torn or garbled tail. Everything from the first invalid frame
// onward — including any later segments — is truncated, so the surviving
// log is always a valid, contiguous prefix of what was written. fn
// receives every record of that prefix during the one scan opening needs
// anyway (see scan for what it may do with a Payload). It runs before
// the store is shared: no lock needed.
func (s *DurableStore) openLog(dir string, fn func(Record, Loc) error) error {
	l, err := seglog.Open(dir, format, seglog.Options{
		SegmentSize: s.opts.SegmentSize,
		Sync:        s.opts.Fsync,
		Clock:       s.opts.Clock,
	})
	if err != nil {
		return err
	}
	s.log = l
	// Appends resume at the seq the scan expected next.
	next, damage, err := s.scan(l.Segments(), fn)
	if err != nil {
		return err
	}
	if damage != nil {
		if err := l.Repair(*damage); err != nil {
			return err
		}
	}
	s.nextSeq = max(next, 1)
	return l.Activate(seqExt(s.nextSeq))
}

// seqExt renders a segment's header extension: the seq of its first
// record.
func seqExt(seq uint64) []byte { return binary.BigEndian.AppendUint64(nil, seq) }

// scan walks segments segs enforcing sequence continuity — within a
// segment, and from each segment's header to the record before it. A
// record or header out of sequence is damage at that point, like a
// failed CRC, and so is a record fn rejects with seglog.ErrDamaged. fn
// receives every record in sequence and where it lies; the Payload is
// the scanner's buffer, valid only during the call. next is the seq the
// scan expected when it stopped, a rejected record's own (0 for a log
// without segments). Nothing here reads the log's state: no lock needed.
func (s *DurableStore) scan(segs []uint64, fn func(Record, Loc) error) (next uint64, damage *seglog.Damage, err error) {
	damage, err = s.log.ScanSegments(segs,
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
			err := fn(rec, Loc{Seg: uint32(seg), Len: uint32(seglog.FrameHeaderLen + len(body)), Off: off})
			if err == nil {
				next++
			}
			return err
		})
	return next, damage, err
}

// appendLocked writes one record and returns its sequence number and
// where it landed. Durability depends on the fsync policy; ordering is
// total regardless.
func (s *DurableStore) appendLocked(typ byte, payload []byte) (uint64, Loc, error) {
	if len(payload) > MaxRecordLen-recordHeaderLen {
		return 0, Loc{}, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	seq := s.nextSeq
	s.frame = appendFrame(s.frame[:0], Record{Seq: seq, Type: typ, Payload: payload})
	// Should this record open a new segment, seq is that segment's
	// first: a record never spans segments.
	seg, off, err := s.log.Append(s.frame, seqExt(seq))
	if err != nil {
		return 0, Loc{}, err
	}
	s.nextSeq = seq + 1
	if err := s.log.MaybeSync(); err != nil {
		return 0, Loc{}, err
	}
	return seq, Loc{Seg: uint32(seg), Len: uint32(len(s.frame)), Off: off}, nil
}

// SetFailpoint arms a deterministic crash on the nth append after this
// call (see seglog.Log.SetFailpoint); the failed append latches the
// store (Failed), and tests reopen the directory to exercise recovery.
func (s *DurableStore) SetFailpoint(mode seglog.FailMode, nthAppend uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.SetFailpoint(mode, nthAppend)
}
