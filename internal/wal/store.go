package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/lz"
	"dcsledger/internal/seglog"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
)

// WAL record types written by the DurableStore.
const (
	// RecBlock journals one connected block (payload: uvarint back, then
	// the lz encoding of the block's canonical encoding, whose copies may
	// reach into the canonical encodings of the back block records before
	// it: an lz.Chain whose positions are the block records of one
	// segment, numbered from 0, head records not counted). The header
	// prefix of a chained record copies from nothing before it, so the
	// open-time scan needs no window.
	RecBlock byte = 1
	// RecHead journals one head switch (payload: 32-byte block hash).
	RecHead byte = 2
)

// DefaultCheckpointEvery is the default block cadence between state
// checkpoints.
const DefaultCheckpointEvery = 64

// ckptMagic versions the checkpoint file format. Version 2 embeds the
// head block itself, so recovery can re-root the block tree at the
// checkpoint after the pre-checkpoint journal has been pruned. The
// snapshot section is empty (length 0; an encoded snapshot never is) when
// the state lay wholly in a node store at checkpoint time: the state
// root is then all recovery needs to open it.
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
	// ErrNoBlock is ReadBlock's answer for a hash the journal does not
	// hold (never journaled, or its segment was pruned).
	ErrNoBlock = errors.New("wal: block not in the journal")
)

// StoreOptions configures a DurableStore.
type StoreOptions struct {
	// Fsync is the WAL flush policy (default seglog.SyncAlways).
	Fsync FsyncPolicy
	// FsyncEvery is the interval policy cadence (0 = seglog.DefaultSyncEvery).
	FsyncEvery time.Duration
	// SegmentSize rotates WAL segments (0 = DefaultSegmentSize).
	SegmentSize int64
	// CheckpointEvery is the block-height cadence between state
	// checkpoints (0 = DefaultCheckpointEvery).
	CheckpointEvery uint64
	// Clock supplies time for the interval fsync policy (nil = wall).
	Clock func() time.Time
}

// Journaled is one record of the journal as Recovery.Replay delivers
// it: a connected block (Block non-nil) or a head switch (Block nil,
// Head the new head).
type Journaled struct {
	Seq   uint64
	Block *types.Block
	Head  cryptoutil.Hash
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
	// State is the head state decoded from the checkpoint's snapshot (no
	// executor installed), nil for a checkpoint without one: the state
	// is then whatever the node store holds under StateRoot.
	State *state.State
	// Block is the checkpointed head block itself (hash verified to
	// equal Head at load). It lets recovery adopt the checkpoint as the
	// block tree's root when pruning dropped the journal below it.
	Block *types.Block
	// Older is the next valid retained checkpoint, loaded only when this
	// one has no snapshot: a node that cannot open this one's state, its
	// root missing from the node store, falls back to it.
	Older *Checkpoint
}

// Recovery is what OpenStore found on disk: how many blocks the journal
// holds, the last durable head switch, and the newest valid checkpoint
// (nil if none usable). The blocks themselves are not held: Replay
// streams them from the log.
type Recovery struct {
	Blocks     int             // block records in the journal (counted by their headers)
	Head       cryptoutil.Hash // zero if no head record survived
	Checkpoint *Checkpoint
	// Truncated counts journal records dropped because a payload failed
	// to decode (CRC-valid but semantically unusable — a version skew
	// or software bug); everything after the first such record is
	// discarded to preserve prefix semantics. A block whose header
	// decodes and whose transactions do not is found, and counted, by
	// Replay.
	Truncated int

	store     *DurableStore
	lastSeq   uint64 // Replay delivers records up to here
	tipHeight uint64
}

// TipHeight is the height of the journal's highest block (0 when empty).
func (r *Recovery) TipHeight() uint64 { return r.tipHeight }

// Replay streams the journal in log order, one decoded record at a
// time, so a caller rebuilding a chain from it holds no more blocks
// than it chooses to keep. Records the open-time scan discarded
// (Truncated) and records appended since are not delivered. The
// callback may read blocks back from the store. Call before the store
// takes new appends.
func (r *Recovery) Replay(fn func(Journaled) error) error {
	var z lz.Chain // one window buffer for every body of the replay
	pos := 0       // block records so far: the scan admitted every one replayed
	return r.store.wal.replay(func(rec Record, at Loc) error {
		if rec.Seq > r.lastSeq {
			return nil
		}
		switch rec.Type {
		case RecBlock:
			raw, err := inflate(&z, rec, pos)
			pos++
			var b *types.Block
			if err == nil {
				b, err = types.DecodeBlock(raw)
			}
			if err != nil {
				// The header decoded when the store opened, the rest does
				// not inflate or does not decode: the journal ends here, as
				// for any undecodable record (prefix semantics), for this
				// replay and the next.
				r.Truncated += int(r.lastSeq - rec.Seq + 1)
				r.lastSeq = rec.Seq - 1
				return nil
			}
			return fn(Journaled{Seq: rec.Seq, Block: b})
		case RecHead:
			if len(rec.Payload) == cryptoutil.HashSize {
				j := Journaled{Seq: rec.Seq}
				copy(j.Head[:], rec.Payload)
				return fn(j)
			}
		}
		return nil
	})
}

// blockPayload splits a block record's payload into its back and the lz
// encoding that follows it.
func blockPayload(rec Record) (back int, enc []byte, err error) {
	if back, enc, _, ok := lz.Split(rec.Payload, MaxRecordLen); ok && rec.Type == RecBlock {
		return back, enc, nil
	}
	return 0, nil, fmt.Errorf("%w: not a block record, or one whose back does not split", seglog.ErrDamaged)
}

// inflate returns the canonical encoding the block record rec carries,
// inflated behind the window of c, rec being block record pos of its
// segment and c having inflated the records of its window before it. The
// bytes are valid until the next call; a decoded block keeps nothing of
// them. Every error wraps seglog.ErrDamaged.
func inflate(c *lz.Chain, rec Record, pos int) ([]byte, error) {
	back, body, err := blockPayload(rec)
	if err != nil {
		return nil, err
	}
	raw, err := c.Inflate(pos, back, 0, nil, body, MaxRecordLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", seglog.ErrDamaged, err)
	}
	return raw, nil
}

// header decodes a block record's header and inflates nothing behind
// it, with no window: the header's 8-byte length first, then that much,
// into *buf, which an error leaves empty. A chained header that copies
// from the window does not inflate.
func header(rec Record, buf *[]byte) (back int, h *types.BlockHeader, err error) {
	const prefix = 8
	back, body, err := blockPayload(rec)
	var p []byte
	if err == nil {
		if p, err = lz.Decode(*buf, body, prefix, MaxRecordLen); err == nil && len(p) == prefix {
			p, err = lz.Decode(p, body, prefix+int(min(binary.BigEndian.Uint64(p), MaxRecordLen)), MaxRecordLen)
		}
		*buf = p
	}
	if err == nil {
		h, err = types.PeekBlockHeader(p)
	}
	return back, h, err
}

// DurableStore is the persistent block-store backend: it journals
// connected blocks and head switches into a segmented WAL under
// dir/wal/ and writes periodic state checkpoints as dir/ckpt-*.ck
// files. The journal is also where block bodies are read back from
// (ReadBlock): the store remembers where each block's record lies. One
// DurableStore belongs to one node; it is safe for concurrent use.
type DurableStore struct {
	mu    sync.Mutex
	ckpts seglog.SideFiles // <data dir>/ckpt-<seq>.ck
	wal   *WAL
	opts  StoreOptions
	// blocks locates every journaled block's record, and segBlocks lists
	// each segment's block records in log order: what a chained record's
	// window reaches back to. Both are memory only, rebuilt by the scan at
	// open: the log is the one copy on disk.
	blocks    map[cryptoutil.Hash]Loc
	segBlocks map[uint32][]Loc
	// enc and zbuf are what LogBlock compresses through: the window's
	// tables and buffer, and one output buffer, for the store's lifetime;
	// nothing allocated per block. chain is where the window stands.
	enc            lz.Encoder
	zbuf           []byte
	chain          lz.Chain
	rawBytes       uint64 // canonical-encoding bytes of the blocks journaled this session
	failed         error  // latched first write failure
	lastCkptHeight uint64
	checkpoints    uint64 // written this session
	// ckptRoots are the state roots the retained checkpoint files name,
	// oldest first.
	ckptRoots []cryptoutil.Hash
}

// OpenStore opens (or initializes) the data directory, repairs the WAL
// tail, loads the newest valid checkpoint, and scans the journal once to
// learn where each block lies. The returned Recovery feeds node
// recovery; the returned store is ready for new appends.
func OpenStore(dir string, opts StoreOptions) (*DurableStore, *Recovery, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: data dir: %w", err)
	}
	s := &DurableStore{
		ckpts:     seglog.SideFiles{Dir: dir, Prefix: "ckpt-", Suffix: ".ck", Keep: keepCheckpoints},
		opts:      opts,
		blocks:    make(map[cryptoutil.Hash]Loc),
		segBlocks: make(map[uint32][]Loc),
	}
	rec := &Recovery{store: s}
	var (
		hdr   []byte // what each header inflates into
		links lz.Chain
	)
	w, err := open(filepath.Join(dir, "wal"), Options{
		SegmentSize: opts.SegmentSize,
		Fsync:       opts.Fsync,
		FsyncEvery:  opts.FsyncEvery,
		Clock:       opts.Clock,
	}, func(r Record, at Loc) error {
		if rec.Truncated > 0 {
			rec.Truncated++
			return nil
		}
		switch r.Type {
		case RecBlock:
			// The header is all this pass needs; Replay inflates the body
			// and decodes the transactions, once, when the block is
			// actually wanted.
			back, h, derr := header(r, &hdr)
			if derr != nil || !links.Admit(len(s.segBlocks[at.Seg]), back, 0) {
				// CRC-valid but uninflatable, undecodable or out of its
				// window: stop collecting here so the recovered chain
				// stays a clean prefix.
				rec.Truncated++
				return nil
			}
			s.blocks[h.Hash()] = at
			s.segBlocks[at.Seg] = append(s.segBlocks[at.Seg], at)
			rec.Blocks++
			rec.tipHeight = max(rec.tipHeight, h.Height)
		case RecHead:
			if len(r.Payload) == cryptoutil.HashSize {
				copy(rec.Head[:], r.Payload)
			}
		}
		rec.lastSeq = r.Seq
		return nil
	})
	if errors.Is(err, seglog.ErrReplaced) {
		return nil, nil, fmt.Errorf("wal: %w: a chain journaled in that format cannot be continued; remove %s and restart", err, dir)
	}
	if err != nil {
		return nil, nil, err
	}
	s.wal = w
	rec.Checkpoint = s.loadCheckpoints()
	for ck := rec.Checkpoint; ck != nil; ck = ck.Older {
		s.ckptRoots = append([]cryptoutil.Hash{ck.StateRoot}, s.ckptRoots...)
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
	// BlockRawBytes is the canonical-encoding size of the blocks journaled
	// this session: what WAL.Bytes would have spent on them uncompressed.
	BlockRawBytes uint64
}

// Stats returns a snapshot of durability counters.
func (s *DurableStore) Stats() StoreStats {
	s.mu.Lock()
	ck, raw := s.checkpoints, s.rawBytes
	s.mu.Unlock()
	return StoreStats{WAL: s.wal.Stats(), Checkpoints: ck, BlockRawBytes: raw}
}

// LogBlock journals one connected block, compressed (RecBlock) against
// the block records before it in its window. The write is the block's
// commit point: an error means durability was NOT achieved and latches
// the store into the failed state. On success the block can be read back
// (ReadBlock).
func (s *DurableStore) LogBlock(b *types.Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	// The window restarts when full; at the first block record of a
	// segment, so pruning a segment orphans no record after it; and at the
	// first record after open, so nothing is reloaded — which is also the
	// first after a failed append. The segment asked is the longest
	// payload's: a record that lands in the one before restarts there.
	seg := s.wal.lands(1 + lz.MaxEncodedLen(b.Size()))
	back := s.chain.Back(len(s.segBlocks[seg]), 0)
	if back == 0 {
		s.enc.Reset()
	}
	in := b.AppendEncode(s.enc.Window())
	raw := in[len(s.enc.Window()):]
	header := 8 + int(binary.BigEndian.Uint64(raw)) // the length field and the header
	s.zbuf = s.enc.Next(lz.AppendBack(s.zbuf[:0], back), in, header)
	at, err := s.logLocked(RecBlock, s.zbuf)
	if err != nil {
		return err
	}
	s.chain.Admit(len(s.segBlocks[at.Seg]), back, 0)
	s.blocks[b.Hash()] = at
	s.segBlocks[at.Seg] = append(s.segBlocks[at.Seg], at)
	s.rawBytes += uint64(len(raw))
	return nil
}

// LogHead journals one head switch.
func (s *DurableStore) LogHead(h cryptoutil.Hash) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.logLocked(RecHead, h.Bytes())
	return err
}

func (s *DurableStore) logLocked(typ byte, payload []byte) (Loc, error) {
	if s.failed != nil {
		return Loc{}, s.failed
	}
	_, at, err := s.wal.AppendAt(typ, payload)
	if err != nil {
		s.failed = fmt.Errorf("%w: %v", ErrStoreFailed, err)
		return Loc{}, s.failed
	}
	return at, nil
}

// HasBlock reports whether ReadBlock can find block h in the journal.
func (s *DurableStore) HasBlock(h cryptoutil.Hash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blocks[h]
	return ok
}

// ReadBlock reads block h back from its journal record, CRC-checked,
// inflated and decoded: ErrNoBlock if the journal does not hold it,
// otherwise the block or the reason the record could not be read. A
// chained record is inflated after the records of its window before it,
// at most lz.WindowRecords in all, and any of them damaged makes it damaged
// too. A block is readable from the moment LogBlock returned, fsynced or
// not.
func (s *DurableStore) ReadBlock(h cryptoutil.Hash) (*types.Block, error) {
	s.mu.Lock()
	at, ok := s.blocks[h]
	locs := s.segBlocks[at.Seg]
	k := sort.Search(len(locs), func(i int) bool { return locs[i].Off >= at.Off })
	var before [lz.WindowRecords - 1]Loc
	prev := before[:copy(before[:], locs[max(0, k-len(before)):k])]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoBlock, h.Short())
	}
	raw, err := s.inflateAt(at, prev)
	var b *types.Block
	if err == nil {
		b, err = types.DecodeBlock(raw)
	}
	if err != nil {
		return nil, fmt.Errorf("wal: read block %s: %w", h.Short(), err)
	}
	if b.Hash() != h {
		return nil, fmt.Errorf("wal: read block %s: %w: the record holds block %s", h.Short(), seglog.ErrDamaged, b.Hash().Short())
	}
	return b, nil
}

// inflateAt returns the canonical encoding the block record at at
// carries, inflating first the records its window reaches back to, the
// last of prev: the block records before it in its segment, in log order.
func (s *DurableStore) inflateAt(at Loc, prev []Loc) ([]byte, error) {
	rec, err := s.wal.ReadAt(at)
	if err != nil {
		return nil, err
	}
	back, _, err := blockPayload(rec)
	if err != nil {
		return nil, err
	}
	prev = prev[max(0, len(prev)-back):] // a back past them does not inflate
	var z lz.Chain
	for i, l := range prev {
		r, err := s.wal.ReadAt(l)
		if err != nil {
			return nil, err
		}
		if _, err := inflate(&z, r, i); err != nil {
			return nil, err
		}
	}
	return inflate(&z, rec, len(prev))
}

// PruneBefore is WAL.PruneBefore that also forgets the blocks of the
// removed segments: they can no longer be read back.
func (s *DurableStore) PruneBefore(seq uint64) (removed int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed, err = s.wal.PruneBefore(seq)
	if removed > 0 {
		oldest := uint32(s.wal.firstSegment())
		for h, at := range s.blocks {
			if at.Seg < oldest {
				delete(s.blocks, h)
			}
		}
		for seg := range s.segBlocks {
			if seg < oldest {
				delete(s.segBlocks, seg)
			}
		}
	}
	return removed, err
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

// CheckpointRoots returns the state roots named by the checkpoint files
// the store retains. A checkpoint without a snapshot is only as good as
// the node store's copy of its root, so a node store sweep keeps them.
func (s *DurableStore) CheckpointRoots() []cryptoutil.Hash {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]cryptoutil.Hash(nil), s.ckptRoots...)
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
// keepCheckpoints files. A state that lies wholly in a node store
// (state.State.Stored) is recorded by its root alone; any other is
// snapshotted into the file. The file is published atomically
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
	var snap []byte
	if !st.Stored() {
		var err error
		if snap, err = st.EncodeSnapshot(); err != nil {
			return fmt.Errorf("wal: checkpoint snapshot: %w", err)
		}
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
	s.ckptRoots = append(s.ckptRoots, root)
	s.ckptRoots = s.ckptRoots[max(0, len(s.ckptRoots)-keepCheckpoints):]
	return nil
}

// Close flushes and closes the store.
func (s *DurableStore) Close() error {
	return s.wal.Close()
}

// loadCheckpoints scans dir for checkpoint files and returns the newest
// that passes CRC, decode, and state-root verification, with the valid
// older ones chained behind it (Checkpoint.Older) down to the first that
// carries a snapshot: that one can always be used, so nothing older is
// decoded. Invalid files are skipped (and reported by recovery as simply
// absent), never trusted.
func (s *DurableStore) loadCheckpoints() *Checkpoint {
	seqs, err := s.ckpts.List()
	if err != nil {
		return nil
	}
	var newest *Checkpoint
	link := &newest
	for i := len(seqs) - 1; i >= 0; i-- {
		if ck := loadCheckpoint(s.ckpts.Path(seqs[i])); ck != nil {
			*link, link = ck, &ck.Older
			if ck.State != nil {
				break
			}
		}
	}
	return newest
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
	if snapLen > 0 {
		// Re-verify the snapshot against the recorded root: a checkpoint
		// whose state does not commit to its claimed root is worthless.
		st, err := state.DecodeSnapshot(data[off : off+int(snapLen)])
		if err != nil || st.Commit() != ck.StateRoot {
			return nil
		}
		ck.State = st
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
	// The block must be the recorded head and, if no snapshot vouches
	// for the recorded root, carry that root in its header.
	if blk.Hash() != ck.Head || blk.Header.Height != ck.Height {
		return nil
	}
	if ck.State == nil && blk.Header.StateRoot != ck.StateRoot {
		return nil
	}
	ck.Block = blk
	return ck
}
