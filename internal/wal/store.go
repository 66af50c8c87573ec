package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/seglog"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
)

// WAL record types written by the DurableStore.
const (
	// RecBlock journals one connected block (payload: types.Block
	// canonical encoding).
	RecBlock byte = 1
	// RecHead journals one head switch (payload: 32-byte block hash).
	RecHead byte = 2
)

// DefaultCheckpointEvery is the default block cadence between state
// checkpoints.
const DefaultCheckpointEvery = 64

// ckptMagic versions the checkpoint file format. Version 2 embeds the
// head block itself, so recovery can re-root the block tree at the
// checkpoint after the pre-checkpoint journal has been pruned.
const ckptMagic = "DCSCKPT2"

// keepCheckpoints is how many newest checkpoint files are retained; the
// second-newest survives as a fallback should the newest be torn by a
// crash during its (atomic) replacement.
const keepCheckpoints = 2

// Store errors.
var (
	// ErrStoreFailed latches after the first write failure: the store
	// refuses further writes so the in-memory chain cannot silently run
	// ahead of a broken log.
	ErrStoreFailed = errors.New("wal: durable store failed")
)

// StoreOptions configures a DurableStore.
type StoreOptions struct {
	// Fsync is the WAL flush policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncEvery is the interval policy cadence (0 = DefaultFsyncEvery).
	FsyncEvery time.Duration
	// SegmentSize rotates WAL segments (0 = DefaultSegmentSize).
	SegmentSize int64
	// CheckpointEvery is the block-height cadence between state
	// checkpoints (0 = DefaultCheckpointEvery).
	CheckpointEvery uint64
	// Clock supplies time for the interval fsync policy (nil = wall).
	Clock func() time.Time
}

// RecoveredBlock is one journaled block with its WAL sequence number,
// used by recovery to split the replay at the newest checkpoint.
type RecoveredBlock struct {
	Seq   uint64
	Block *types.Block
}

// Checkpoint is one decoded, validated state checkpoint.
type Checkpoint struct {
	// Seq is the WAL sequence number the checkpoint covers: every
	// record with Seq <= this was reflected in State when it was taken.
	Seq uint64
	// Head and Height identify the checkpointed chain head.
	Head   cryptoutil.Hash
	Height uint64
	// StateRoot is Head's state root; State.Commit() was verified to
	// equal it when the checkpoint was loaded.
	StateRoot cryptoutil.Hash
	// State is the materialized head state (no executor installed).
	State *state.State
	// Block is the checkpointed head block itself (hash verified to
	// equal Head at load). It lets recovery adopt the checkpoint as the
	// block tree's root when pruning dropped the journal below it.
	Block *types.Block
}

// Recovery is everything OpenStore reconstructs from disk: the journal
// of blocks in log order, the last durable head switch, and the newest
// valid checkpoint (nil if none usable).
type Recovery struct {
	Blocks     []RecoveredBlock
	Head       cryptoutil.Hash // zero if no head record survived
	Checkpoint *Checkpoint
	// Truncated counts journal records dropped because a payload failed
	// to decode (CRC-valid but semantically unusable — a version skew
	// or software bug); everything after the first such record is
	// discarded to preserve prefix semantics.
	Truncated int
}

// Height of the recovery's newest block (0 when empty).
func (r *Recovery) TipHeight() uint64 {
	var h uint64
	for _, rb := range r.Blocks {
		if rb.Block.Header.Height > h {
			h = rb.Block.Header.Height
		}
	}
	return h
}

// DurableStore is the persistent block-store backend: it journals
// connected blocks and head switches into a segmented WAL under
// dir/wal/ and writes periodic state checkpoints as dir/ckpt-*.ck
// files. One DurableStore belongs to one node; it is safe for
// concurrent use.
type DurableStore struct {
	mu             sync.Mutex
	ckpts          seglog.SideFiles // <data dir>/ckpt-<seq>.ck
	wal            *WAL
	opts           StoreOptions
	failed         error // latched first write failure
	lastCkptHeight uint64
	checkpoints    uint64 // written this session
}

// OpenStore opens (or initializes) the data directory, repairs the WAL
// tail, loads the newest valid checkpoint, and replays the journal. The
// returned Recovery feeds node recovery; the returned store is ready
// for new appends.
func OpenStore(dir string, opts StoreOptions) (*DurableStore, *Recovery, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: data dir: %w", err)
	}
	w, err := Open(filepath.Join(dir, "wal"), Options{
		SegmentSize: opts.SegmentSize,
		Fsync:       opts.Fsync,
		FsyncEvery:  opts.FsyncEvery,
		Clock:       opts.Clock,
	})
	if err != nil {
		return nil, nil, err
	}
	s := &DurableStore{
		ckpts: seglog.SideFiles{Dir: dir, Prefix: "ckpt-", Suffix: ".ck", Keep: keepCheckpoints},
		wal:   w,
		opts:  opts,
	}

	rec := &Recovery{Checkpoint: s.loadNewestCheckpoint()}
	stop := false
	if err := w.Replay(func(r Record) error {
		if stop {
			rec.Truncated++
			return nil
		}
		switch r.Type {
		case RecBlock:
			b, derr := types.DecodeBlock(r.Payload)
			if derr != nil {
				// CRC-valid but undecodable: stop collecting here so the
				// recovered chain stays a clean prefix.
				stop = true
				rec.Truncated++
				return nil
			}
			rec.Blocks = append(rec.Blocks, RecoveredBlock{Seq: r.Seq, Block: b})
		case RecHead:
			if len(r.Payload) == cryptoutil.HashSize {
				copy(rec.Head[:], r.Payload)
			}
		}
		return nil
	}); err != nil {
		w.Close()
		return nil, nil, err
	}
	// Arm the prune floor: segments above the newest checkpoint's seq
	// are the replay suffix and must never be pruned. With no usable
	// checkpoint the floor is zero — nothing may be pruned at all.
	if rec.Checkpoint != nil {
		s.lastCkptHeight = rec.Checkpoint.Height
		w.SetPruneFloor(rec.Checkpoint.Seq)
	} else {
		w.SetPruneFloor(0)
	}
	return s, rec, nil
}

// WAL exposes the underlying log (failpoint injection, stats, pruning).
func (s *DurableStore) WAL() *WAL { return s.wal }

// Dir returns the store's data directory.
func (s *DurableStore) Dir() string { return s.ckpts.Dir }

// Failed returns the latched first write error, nil while healthy.
func (s *DurableStore) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// StoreStats is a snapshot of the store's durability counters.
type StoreStats struct {
	WAL         Stats
	Checkpoints uint64 // checkpoints written this session
}

// Stats returns a snapshot of durability counters.
func (s *DurableStore) Stats() StoreStats {
	s.mu.Lock()
	ck := s.checkpoints
	s.mu.Unlock()
	return StoreStats{WAL: s.wal.Stats(), Checkpoints: ck}
}

// LogBlock journals one connected block. The write is the block's
// commit point: an error means durability was NOT achieved and latches
// the store into the failed state.
func (s *DurableStore) LogBlock(b *types.Block) error { return s.log(RecBlock, b.Encode()) }

// LogHead journals one head switch.
func (s *DurableStore) LogHead(h cryptoutil.Hash) error { return s.log(RecHead, h.Bytes()) }

func (s *DurableStore) log(typ byte, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if _, err := s.wal.Append(typ, payload); err != nil {
		s.failed = fmt.Errorf("%w: %v", ErrStoreFailed, err)
		return s.failed
	}
	return nil
}

// CheckpointDue reports whether a head at height has advanced at least
// CheckpointEvery blocks past the previous checkpoint. A caller with
// work to finish before the checkpoint file may name this head (the
// node flushes its disk state first) asks here, does it, then calls
// Checkpoint.
func (s *DurableStore) CheckpointDue(height uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return height >= s.lastCkptHeight+s.opts.CheckpointEvery
}

// MaybeCheckpoint writes a checkpoint when one is due (CheckpointDue).
// Returns whether a checkpoint was written.
func (s *DurableStore) MaybeCheckpoint(b *types.Block, root cryptoutil.Hash, st *state.State) (bool, error) {
	if !s.CheckpointDue(b.Header.Height) {
		return false, nil
	}
	return true, s.Checkpoint(b, root, st)
}

// Checkpoint unconditionally writes a state checkpoint of head block b
// covering the WAL as of now, then retires all but the newest
// keepCheckpoints files. The file is published atomically
// (seglog.SideFiles), so a crash mid-checkpoint leaves the previous
// checkpoint intact.
func (s *DurableStore) Checkpoint(b *types.Block, root cryptoutil.Hash, st *state.State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if err := s.checkpointLocked(b, root, st); err != nil {
		s.failed = fmt.Errorf("%w: %v", ErrStoreFailed, err)
		return s.failed
	}
	return nil
}

func (s *DurableStore) checkpointLocked(b *types.Block, root cryptoutil.Hash, st *state.State) error {
	head, height := b.Hash(), b.Header.Height
	snap, err := st.EncodeSnapshot()
	if err != nil {
		return fmt.Errorf("wal: checkpoint snapshot: %w", err)
	}
	// The checkpoint covers every record appended so far; flush them
	// first so the covered prefix really is durable.
	if err := s.wal.Sync(); err != nil {
		return err
	}
	seq := s.wal.LastSeq()

	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	var b8 [8]byte
	binary.BigEndian.PutUint64(b8[:], seq)
	buf.Write(b8[:])
	binary.BigEndian.PutUint64(b8[:], height)
	buf.Write(b8[:])
	buf.Write(head[:])
	buf.Write(root[:])
	var b4 [4]byte
	binary.BigEndian.PutUint32(b4[:], uint32(len(snap)))
	buf.Write(b4[:])
	buf.Write(snap)
	blk := b.Encode()
	binary.BigEndian.PutUint32(b4[:], uint32(len(blk)))
	buf.Write(b4[:])
	buf.Write(blk)
	body := buf.Bytes()[len(ckptMagic):]
	binary.BigEndian.PutUint32(b4[:], seglog.Checksum(body))
	buf.Write(b4[:])

	if err := s.ckpts.Write(seq, buf.Bytes()); err != nil {
		return err
	}
	// The checkpoint now covers everything up to seq, so pruning may
	// advance to it (and no further).
	s.wal.SetPruneFloor(seq)
	s.lastCkptHeight = height
	s.checkpoints++
	return nil
}

// Close flushes and closes the store.
func (s *DurableStore) Close() error {
	return s.wal.Close()
}

// loadNewestCheckpoint scans dir for checkpoint files, newest first,
// and returns the first that passes CRC, decode, and state-root
// verification. Invalid files are skipped (and reported by recovery as
// simply absent), never trusted.
func (s *DurableStore) loadNewestCheckpoint() *Checkpoint {
	seqs, err := s.ckpts.List()
	if err != nil {
		return nil
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		if ck := loadCheckpoint(s.ckpts.Path(seqs[i])); ck != nil {
			return ck
		}
	}
	return nil
}

// loadCheckpoint parses and verifies one checkpoint file; nil if it is
// damaged in any way.
func loadCheckpoint(path string) *Checkpoint {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	const fixed = 8 + 8 + 8 + cryptoutil.HashSize + cryptoutil.HashSize + 4 // magic..snaplen
	if len(data) < fixed+4 {
		return nil
	}
	if string(data[:8]) != ckptMagic {
		return nil
	}
	body := data[8 : len(data)-4]
	gotCRC := binary.BigEndian.Uint32(data[len(data)-4:])
	if seglog.Checksum(body) != gotCRC {
		return nil
	}
	ck := &Checkpoint{}
	off := 8
	ck.Seq = binary.BigEndian.Uint64(data[off:])
	off += 8
	ck.Height = binary.BigEndian.Uint64(data[off:])
	off += 8
	copy(ck.Head[:], data[off:])
	off += cryptoutil.HashSize
	copy(ck.StateRoot[:], data[off:])
	off += cryptoutil.HashSize
	snapLen := binary.BigEndian.Uint32(data[off:])
	off += 4
	if off+int(snapLen)+4 > len(data)-4 {
		return nil
	}
	st, err := state.DecodeSnapshot(data[off : off+int(snapLen)])
	if err != nil {
		return nil
	}
	off += int(snapLen)
	blkLen := binary.BigEndian.Uint32(data[off:])
	off += 4
	if off+int(blkLen) != len(data)-4 {
		return nil
	}
	blk, err := types.DecodeBlock(data[off : off+int(blkLen)])
	if err != nil {
		return nil
	}
	// Re-verify the snapshot against the recorded root and the block
	// against the recorded head: a checkpoint whose state does not
	// commit to its claimed root (or whose block is not its head) is
	// worthless.
	if st.Commit() != ck.StateRoot {
		return nil
	}
	if blk.Hash() != ck.Head || blk.Header.Height != ck.Height {
		return nil
	}
	ck.State = st
	ck.Block = blk
	return ck
}
