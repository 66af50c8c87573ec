package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/lz"
	"dcsledger/internal/metrics"
	"dcsledger/internal/seglog"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
)

// WAL record types written by the DurableStore.
const (
	// RecBlock journals one connected block (payload: uvarint back, then
	// the lz encoding of the block's storage form, types.Block.AppendStored,
	// whose copies may reach into the storage forms of the back block
	// records before it: an lz.Chain whose positions are the block records
	// of one segment, numbered from 0, head records not counted; then the
	// block's signatures raw, types.Block.AppendSigs, which no window
	// holds). The header prefix of a chained record copies from nothing
	// before it, so the open-time scan needs no window.
	RecBlock byte = 1
	// RecHead journals one head switch (payload: 32-byte block hash): a
	// switch to a block journaled before, a reorg to an older tip.
	RecHead byte = 2
	// RecHeadBlock journals a connected block that is the new head: it
	// means exactly RecBlock of the block followed by RecHead of its hash,
	// in one record. The payload is RecBlock's, and it is a block record
	// of its window like one.
	RecHeadBlock byte = 3
)

// The journal's window: a block record's storage form is compressed
// against those of the block records before it in its window, which
// restarts before their storage forms would pass windowCap bytes, twice
// what one copy reaches (lz.Window), or at windowRecords records. A read
// inflates at most that.
const (
	windowCap     = 128 << 10
	windowRecords = 128
)

// newWindow is the rule of the journal's window, with no window yet.
func newWindow() lz.Chain { return lz.Chain{Cap: windowCap, Records: windowRecords} }

// cursor is where the journal's window stands, for the writer and the open
// scan: the segment, its block records so far, the window's first offset.
type cursor struct {
	seg  uint32
	n    int
	from int64
}

// next is the position of a block record that lands in segment seg.
func (c *cursor) next(seg uint32) int {
	if seg != c.seg {
		return 0
	}
	return c.n
}

// add counts in the block record of back whose frame lies at at, and
// returns its index entry: the frames from its window's first record to
// its own end.
func (c *cursor) add(at Loc, back int) Loc {
	if at.Seg != c.seg {
		c.seg, c.n = at.Seg, 0
	}
	if back == 0 {
		c.from = at.Off
	}
	c.n++
	return Loc{Seg: at.Seg, Off: c.from, Len: uint32(at.Off + int64(at.Len) - c.from)}
}

// isBlock reports whether records of type typ carry a block.
func isBlock(typ byte) bool { return typ == RecBlock || typ == RecHeadBlock }

// DefaultCheckpointEvery is the default block cadence between state
// checkpoints.
const DefaultCheckpointEvery = 64

// ckptMagic versions the checkpoint file format. Version 4 is version
// 3 without the head block: the journal holds every block a checkpoint
// names, so the file carries the head's hash and nothing of its body.
// The snapshot is empty (an encoded snapshot never is) when the state
// lay wholly in a node store at checkpoint time: the state root is then
// all recovery needs to open it. A file of an earlier version is skipped,
// not read.
const ckptMagic = "DCSCKPT4"

const maxCheckpointLen = 1 << 30 // bounds what a checkpoint inflates to

// ckptHeaderLen is what a checkpoint body holds before its snapshot:
// u64 seq, u64 height, the head's hash and its state root.
const ckptHeaderLen = 16 + 2*cryptoutil.HashSize

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
	// hold.
	ErrNoBlock = errors.New("wal: block not in the journal")
)

// StoreOptions configures a DurableStore.
type StoreOptions struct {
	// Fsync is the WAL flush policy (default seglog.SyncAlways; the
	// interval policy's cadence is seglog.DefaultSyncEvery).
	Fsync seglog.SyncPolicy
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
// Head the new head). A RecHeadBlock is delivered as both, the block
// first, under the one Seq.
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
	// Older is the next valid retained checkpoint, loaded only when this
	// one has no snapshot: a node that cannot open this one's state, its
	// root missing from the node store, falls back to it.
	Older *Checkpoint
}

// Recovery is what OpenStore found on disk: how many blocks the journal
// holds, the last durable head switch, and the newest valid checkpoint
// (nil if none usable). The blocks themselves are not held: Replay
// streams them from the log. A record the open-time scan would not hand
// to Replay was cut, with everything behind it, as a torn tail is, and
// so was every checkpoint that covered more than the journal kept.
type Recovery struct {
	Blocks     int             // block records in the journal (counted by their headers)
	Head       cryptoutil.Hash // zero if no head record survived
	Checkpoint *Checkpoint
	// SkippedCheckpoints are the checkpoint files opening did not use,
	// newest first: those it removed, as they cover records past the
	// journal's last, then those it read and refused. A torn or replaced
	// file is not mistaken for no file.
	SkippedCheckpoints []SkippedCheckpoint

	store     *DurableStore
	lastSeq   uint64 // Replay delivers records up to here
	tipHeight uint64
}

// SkippedCheckpoint is one checkpoint file recovery did not use, and why.
type SkippedCheckpoint struct {
	File   string
	Reason error
}

// TipHeight is the height of the journal's highest block (0 when empty).
func (r *Recovery) TipHeight() uint64 { return r.tipHeight }

// Replay streams the journal in log order, one decoded record at a
// time, so a caller rebuilding a chain from it holds no more blocks
// than it chooses to keep. Records appended since the open are not
// delivered. The callback may read blocks back from the store. Call
// before the store takes new appends.
//
// A block record whose body does not inflate or decode is refused: Replay
// stops there with an error that wraps seglog.ErrDamaged and names its
// seq, and latches the store failed, so nothing is appended behind it.
func (r *Recovery) Replay(fn func(Journaled) error) error {
	z := newWindow() // one window buffer for every body of the replay
	pos := 0         // block records so far: the scan admitted every one replayed
	r.store.mu.Lock()
	segs := r.store.log.Segments()
	r.store.mu.Unlock()
	// Opening already repaired the log; damage here means a file changed
	// underneath us, and replay stops at the valid prefix. The lock is
	// held only to list the segments, so fn may read the log back.
	var refused error
	_, _, err := r.store.scan(segs, func(rec Record, at Loc) error {
		if rec.Seq > r.lastSeq {
			return nil
		}
		if rec.Type == RecHead {
			j := Journaled{Seq: rec.Seq}
			copy(j.Head[:], rec.Payload) // the open-time scan admitted hashes only
			return fn(j)
		}
		form, sigs, err := inflate(&z, rec, pos)
		pos++
		var b *types.Block
		if err == nil {
			if b, err = types.DecodeStoredBlock(form, sigs); err != nil {
				err = fmt.Errorf("%w: %v", seglog.ErrDamaged, err)
			}
		}
		if err != nil {
			// Damage ends the scan; the refusal is returned after it.
			refused = fmt.Errorf("wal: replay: block record %d: %w", rec.Seq, err)
			return refused
		}
		if err := fn(Journaled{Seq: rec.Seq, Block: b}); err != nil || rec.Type == RecBlock {
			return err
		}
		return fn(Journaled{Seq: rec.Seq, Head: b.Hash()})
	})
	if refused != nil {
		r.store.mu.Lock()
		r.store.failed = cmp.Or(r.store.failed, fmt.Errorf("%w: %v", ErrStoreFailed, refused))
		r.store.mu.Unlock()
		return refused
	}
	return err
}

// blockPayload splits a block record's payload into its back and the lz
// encoding that follows it, and returns the size of the storage form
// that encoding declares: what the record weighs in its window.
func blockPayload(rec Record) (back int, enc []byte, size int, err error) {
	if back, enc, size, ok := lz.Split(rec.Payload, MaxRecordLen); ok && isBlock(rec.Type) {
		return back, enc, size, nil
	}
	return 0, nil, 0, fmt.Errorf("%w: not a block record, or one whose back does not split", seglog.ErrDamaged)
}

// inflate returns the storage form the block record rec carries,
// inflated behind the window of c, rec being block record pos of its
// segment and c having inflated the records of its window before it, and
// the signatures behind it. The form is valid until the next call; a
// decoded block keeps nothing of it. Every error wraps seglog.ErrDamaged.
func inflate(c *lz.Chain, rec Record, pos int) (form, sigs []byte, err error) {
	back, body, size, err := blockPayload(rec)
	if err != nil {
		return nil, nil, err
	}
	enc, sigs, ok := lz.Cut(body, MaxRecordLen)
	if !ok {
		return nil, nil, fmt.Errorf("%w: the storage form's encoding does not end", seglog.ErrDamaged)
	}
	if form, err = c.Inflate(pos, back, size, nil, enc, MaxRecordLen); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", seglog.ErrDamaged, err)
	}
	return form, sigs, nil
}

// header decodes a block record's header and inflates nothing behind
// it, with no window: the header's 8-byte length first, then that much,
// into *buf, which an error leaves empty. A chained header that copies
// from the window does not inflate. size is the storage form's, as the
// encoding declares it.
func header(rec Record, buf *[]byte) (back, size int, h *types.BlockHeader, err error) {
	const prefix = 8
	back, body, size, err := blockPayload(rec)
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
	return back, size, h, err
}

// DurableStore is the persistent block-store backend: it journals
// connected blocks and head switches into a segmented WAL under
// dir/wal/ and writes periodic state checkpoints as dir/ckpt-*.ck
// files. The journal is also where block bodies are read back from
// (ReadBlock): the store remembers where each block's record lies. One
// DurableStore belongs to one node; it is safe for concurrent use.
type DurableStore struct {
	// The mutex serializes everything that touches the log: the WAL is
	// the ledger's commit ordering, so there is exactly one writer at a
	// time by design.
	mu      sync.Mutex
	ckpts   seglog.SideFiles // <data dir>/ckpt-<seq>.ck
	log     *seglog.Log      // <data dir>/wal/
	nextSeq uint64
	opts    StoreOptions
	// blocks locates every journaled block: the frames from the first
	// record of its window to the end of its own, all a read needs. Memory
	// only, rebuilt by the scan at open: the log is the one copy on disk.
	blocks map[cryptoutil.Hash]Loc
	// enc and zbuf are what LogBlock compresses through: the window's
	// tables and buffer, and one output buffer, and frame what every
	// record is framed in, for the store's lifetime; nothing allocated per
	// block. chain and cur are where the window stands.
	enc            lz.Encoder
	zbuf, frame    []byte
	chain          lz.Chain
	cur            cursor
	ckptEnc        lz.Encoder // compresses checkpoints, apart from the window
	ckptBytes      int        // size of the newest checkpoint file
	rawBytes       uint64     // canonical-encoding bytes of the blocks journaled this session
	failed         error      // latched first write failure
	lastCkptHeight uint64
	checkpoints    uint64 // written this session
	// ckptRoots are the state roots the retained checkpoint files name,
	// oldest first.
	ckptRoots []cryptoutil.Hash
}

// OpenStore opens (or initializes) the data directory, repairs the WAL
// tail, removes the checkpoints that cover records past the journal's
// last, loads the newest valid one of the rest, and scans the journal
// once to learn where each block lies. The returned Recovery feeds node
// recovery; the returned store is ready for new appends.
func OpenStore(dir string, opts StoreOptions) (*DurableStore, *Recovery, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	opts.SegmentSize = min(opts.SegmentSize, 1<<31) // a block's index entry spans at most a segment, in 32 bits
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: data dir: %w", err)
	}
	s := &DurableStore{
		ckpts:  seglog.SideFiles{Dir: dir, Prefix: "ckpt-", Suffix: ".ck", Keep: keepCheckpoints},
		opts:   opts,
		blocks: make(map[cryptoutil.Hash]Loc),
		chain:  newWindow(),
	}
	rec := &Recovery{store: s}
	var (
		hdr   []byte // what each header inflates into
		links = newWindow()
	)
	// A record Replay would not take is damage: cut there, as a torn tail.
	err := s.openLog(filepath.Join(dir, "wal"), func(r Record, at Loc) error {
		switch r.Type {
		case RecBlock, RecHeadBlock:
			// The header is all this pass needs; Replay inflates the body
			// and decodes the transactions, once, when the block is
			// actually wanted.
			back, size, h, err := header(r, &hdr)
			if err != nil || !links.Admit(s.cur.next(at.Seg), back, size) {
				return seglog.ErrDamaged // uninflatable, undecodable or out of its window
			}
			hash := h.Hash()
			s.blocks[hash] = s.cur.add(at, back)
			rec.Blocks++
			rec.tipHeight = max(rec.tipHeight, h.Height)
			if r.Type == RecHeadBlock {
				rec.Head = hash
			}
		case RecHead:
			if len(r.Payload) != cryptoutil.HashSize {
				return seglog.ErrDamaged
			}
			copy(rec.Head[:], r.Payload)
		default:
			return seglog.ErrDamaged
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
	if rec.Checkpoint, rec.SkippedCheckpoints, err = s.loadCheckpoints(); err != nil {
		s.log.Close()
		return nil, nil, err
	}
	for ck := rec.Checkpoint; ck != nil; ck = ck.Older {
		s.ckptRoots = append([]cryptoutil.Hash{ck.StateRoot}, s.ckptRoots...)
	}
	if rec.Checkpoint != nil {
		s.lastCkptHeight = rec.Checkpoint.Height
	}
	return s, rec, nil
}

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
	BlockRawBytes   uint64
	CheckpointBytes int // size of the newest checkpoint file, 0 while there is none
}

// Stats returns a snapshot of durability counters.
func (s *DurableStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.log.Stats()
	return StoreStats{
		WAL: Stats{
			Appends:       ls.Appends,
			Fsyncs:        ls.Syncs,
			Rotations:     ls.Rotations,
			Segments:      ls.Segments,
			Bytes:         ls.Bytes,
			TornTruncated: ls.TornBytes,
			LastSeq:       s.nextSeq - 1,
		},
		Checkpoints:     s.checkpoints,
		BlockRawBytes:   s.rawBytes,
		CheckpointBytes: s.ckptBytes,
	}
}

// RegisterMetrics exports the store through reg: one collector, reading
// one Stats snapshot per scrape.
func (s *DurableStore) RegisterMetrics(reg *metrics.Registry) {
	reg.Collect(func(emit func(string, int64)) {
		st := s.Stats()
		emit("wal_appends_total", int64(st.WAL.Appends))
		emit("wal_fsyncs_total", int64(st.WAL.Fsyncs))
		emit("wal_rotations_total", int64(st.WAL.Rotations))
		emit("wal_segments", int64(st.WAL.Segments))
		emit("wal_bytes_written_total", int64(st.WAL.Bytes))
		emit("wal_block_raw_bytes_total", int64(st.BlockRawBytes))
		emit("wal_last_seq", int64(st.WAL.LastSeq))
		emit("wal_torn_truncated_bytes_total", int64(st.WAL.TornTruncated))
		emit("wal_checkpoints_total", int64(st.Checkpoints))
		emit("wal_checkpoint_bytes", int64(st.CheckpointBytes))
	})
}

// LogBlock journals one connected block, its storage form compressed
// (RecBlock) against the block records before it in its window and its
// signatures behind it. The write is the block's
// commit point: an error means durability was NOT achieved and latches
// the store into the failed state. On success the block can be read back
// (ReadBlock).
func (s *DurableStore) LogBlock(b *types.Block) error { return s.logBlock(RecBlock, b) }

// LogHeadBlock is LogBlock of b, then LogHead of its hash, in one record
// (RecHeadBlock): one write, and under the always policy one fsync, where
// the two took two each.
func (s *DurableStore) LogHeadBlock(b *types.Block) error { return s.logBlock(RecHeadBlock, b) }

func (s *DurableStore) logBlock(typ byte, b *types.Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	// The window restarts when full, in records or in bytes; at the first
	// block record of a segment, so a read never crosses segments; and at
	// the first record after open, so nothing is reloaded — which is also
	// the first after a failed append. The segment asked is the longest
	// payload's: a record that lands in the one before restarts there.
	seg := uint32(s.log.Lands(seglog.FrameHeaderLen + recordHeaderLen + 1 + lz.MaxEncodedLen(b.Size())))
	win := s.enc.Window()
	in := b.AppendStored(win)
	size := len(in) - len(win)
	back := s.chain.Back(s.cur.next(seg), size)
	if back == 0 {
		// The form moves to the front of the buffer it was appended to,
		// which may have outgrown the window's: a copy that overlaps.
		s.enc.Reset()
		in = append(in[:0], in[len(win):]...)
	}
	header := 8 + int(binary.BigEndian.Uint64(in[len(in)-size:])) // the length field and the header
	s.zbuf = b.AppendSigs(s.enc.Next(lz.AppendBack(s.zbuf[:0], back), in, header))
	at, err := s.logLocked(typ, s.zbuf)
	if err != nil {
		return err
	}
	s.chain.Admit(s.cur.next(at.Seg), back, size)
	//dcslint:ignore unbounded one 16-byte entry per block the node verified and connected, kept as long as the journal keeps the block, which is for good: it follows the chain's length as the block tree's headers do (ROADMAP item 5)
	s.blocks[b.Hash()] = s.cur.add(at, back)
	s.rawBytes += uint64(b.Size())
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
	_, at, err := s.appendLocked(typ, payload)
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

// ReadBlock reads block h back from its journal record, inflated and
// decoded (readBlock): ErrNoBlock if the journal does not hold it,
// otherwise the block or the reason the record could not be read; any
// damaged frame of its window up to it makes it damaged too. A block is
// readable from the moment LogBlock returned, fsynced or not. The lock is
// held once, for the index and the segment's read handle (a window never
// crosses segments); a handle closed under the read by a rotation is
// taken again once.
func (s *DurableStore) ReadBlock(h cryptoutil.Hash) (*types.Block, error) {
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		at, ok := s.blocks[h]
		f, err := io.ReaderAt(nil), seglog.ErrClosed
		if ok && !s.log.Closed() {
			f, err = s.log.Reader(uint64(at.Seg))
		}
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoBlock, h.Short())
		}
		var b *types.Block
		if err == nil {
			var form, sigs []byte
			if form, sigs, err = readBlock(f, at); err == nil {
				if b, err = types.DecodeStoredBlock(form, sigs); err != nil {
					err = fmt.Errorf("%w: %v", seglog.ErrDamaged, err)
				}
			}
		}
		if err == nil && b.Hash() != h {
			err = fmt.Errorf("%w: the record holds block %s", seglog.ErrDamaged, b.Hash().Short())
		}
		if err == nil {
			return b, nil
		}
		if errors.Is(err, seglog.ErrDamaged) || attempt > 0 {
			return nil, fmt.Errorf("wal: read block %s: %w", h.Short(), err)
		}
	}
}

// readBlock returns the storage form and the signatures of the block
// record that ends span at, read through f, a read handle of its segment,
// in one read: the frames of its window up to it, checked as the open
// scan checks them. Its block records are inflated in order, each at its
// ordinal in the span, so the chain refuses one past the window's
// records; head records are skipped. The last frame must be a block's.
func readBlock(f io.ReaderAt, at Loc) (form, sigs []byte, err error) {
	span := make([]byte, at.Len)
	if _, err := f.ReadAt(span, at.Off); err != nil {
		return nil, nil, fmt.Errorf("wal: read window: %w", err)
	}
	var held [windowRecords]Record
	recs, size, last := held[:0], 0, byte(0)
	err = format.Frames(span, at.Off, func(_ int64, body []byte) error {
		rec, ok := decodeRecord(body)
		if !ok {
			return fmt.Errorf("%w: short record body", seglog.ErrDamaged)
		}
		if last = rec.Type; isBlock(last) {
			_, _, n, _ := blockPayload(rec) // 0 for a payload that does not split
			recs, size = append(recs, rec), size+n
		}
		return nil
	})
	if err == nil && !isBlock(last) {
		err = fmt.Errorf("%w: the bytes read do not end in a block record", seglog.ErrDamaged)
	}
	z := newWindow()
	z.Grow(min(size, windowCap)) // the window's forms, in one buffer
	for i := 0; err == nil && i < len(recs); i++ {
		form, sigs, err = inflate(&z, recs[i], i)
	}
	return form, sigs, err
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
	if err := s.log.Sync(); err != nil {
		return err
	}
	seq := s.nextSeq - 1

	body := binary.BigEndian.AppendUint64(make([]byte, 0, ckptHeaderLen+len(snap)), seq)
	body = binary.BigEndian.AppendUint64(body, height)
	body = append(append(append(body, head[:]...), root[:]...), snap...)
	if len(body) > maxCheckpointLen {
		return fmt.Errorf("wal: checkpoint of %d bytes, over %d", len(body), maxCheckpointLen)
	}
	file := s.ckptEnc.Encode(append(make([]byte, 0, len(ckptMagic)+lz.MaxEncodedLen(len(body))+4), ckptMagic...), body)
	file = binary.BigEndian.AppendUint32(file, seglog.Checksum(file[len(ckptMagic):]))

	if err := s.ckpts.Write(seq, file); err != nil {
		return err
	}
	s.lastCkptHeight = height
	s.checkpoints++
	s.ckptBytes = len(file)
	s.ckptRoots = append(s.ckptRoots, root)
	s.ckptRoots = s.ckptRoots[max(0, len(s.ckptRoots)-keepCheckpoints):]
	return nil
}

// Close flushes and closes the store.
func (s *DurableStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// loadCheckpoints scans dir for checkpoint files and returns the newest
// that passes CRC, decode, and state-root verification, with the valid
// older ones chained behind it (Checkpoint.Older) down to the first that
// carries a snapshot: that one can always be used, so nothing older is
// decoded. A file that covers a seq past the journal's last record
// outlived the records it covers (the open cut the log below it): it is
// removed, since it names a state the journal cannot reach, and the
// appends that reuse its seqs would give their checkpoints older names
// than it, which retention would delete as they are written; a file that
// cannot be removed fails the open. Invalid files are never trusted:
// they are skipped. Both are returned, newest first, with the reason. It
// runs before the store is shared: no lock needed.
func (s *DurableStore) loadCheckpoints() (newest *Checkpoint, skipped []SkippedCheckpoint, err error) {
	seqs, err := s.ckpts.List()
	if err != nil {
		return nil, []SkippedCheckpoint{{File: s.ckpts.Dir, Reason: err}}, nil
	}
	last := s.nextSeq - 1
	for ; len(seqs) > 0 && seqs[len(seqs)-1] > last; seqs = seqs[:len(seqs)-1] {
		seq := seqs[len(seqs)-1]
		if err := s.ckpts.Remove(seq); err != nil {
			return nil, nil, fmt.Errorf("wal: checkpoint %s covers seq %d, past the journal's last record %d, and cannot be removed: %w", s.ckpts.Path(seq), seq, last, err)
		}
		skipped = append(skipped, SkippedCheckpoint{File: s.ckpts.Path(seq), Reason: fmt.Errorf("wal: checkpoint covers seq %d, past the journal's last record %d: removed", seq, last)})
	}
	link := &newest
	for i := len(seqs) - 1; i >= 0; i-- {
		path := s.ckpts.Path(seqs[i])
		data, err := os.ReadFile(path)
		if i == len(seqs)-1 {
			s.ckptBytes = len(data)
		}
		var ck *Checkpoint
		if err == nil {
			ck, err = decodeCheckpoint(data)
		}
		if err != nil {
			skipped = append(skipped, SkippedCheckpoint{File: path, Reason: err})
			continue
		}
		*link, link = ck, &ck.Older
		if ck.State != nil {
			break
		}
	}
	return newest, skipped, nil
}

// decodeCheckpoint parses and verifies one checkpoint file, or says what
// is wrong with it.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("wal: checkpoint does not open with %s", ckptMagic)
	}
	enc := data[len(ckptMagic) : len(data)-4]
	if seglog.Checksum(enc) != binary.BigEndian.Uint32(data[len(data)-4:]) {
		return nil, errors.New("wal: checkpoint checksum mismatch")
	}
	body, err := lz.Decode(nil, enc, maxCheckpointLen, maxCheckpointLen)
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint: %w", err)
	}
	if len(body) < ckptHeaderLen {
		return nil, errors.New("wal: checkpoint body too short")
	}
	ck := &Checkpoint{Seq: binary.BigEndian.Uint64(body), Height: binary.BigEndian.Uint64(body[8:])}
	p := body[16+copy(ck.Head[:], body[16:]):]
	snap := p[copy(ck.StateRoot[:], p):]
	if len(snap) > 0 {
		// Re-verify the snapshot against the recorded root: a checkpoint
		// whose state does not commit to its claimed root is worthless.
		st, err := state.DecodeSnapshot(snap)
		if err == nil && st.Commit() != ck.StateRoot {
			err = errors.New("it commits to another root")
		}
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint snapshot: %w", err)
		}
		ck.State = st
	}
	return ck, nil
}
