// Package nodestore is the disk-backed, node-hash-addressed backend for
// the authenticated state structures (internal/mpt, internal/iavl): the
// piece that lets a full node hold millions of accounts in bounded RAM,
// as the paper's "pervasive" third generation requires. The design is
// the Ethereum/LevelDB shape named in PAPERS.md — hash-addressed trie
// nodes in a flat store with an in-RAM cache — built on this repo's own
// durability substrate instead of an external KV dependency.
//
// Layout. A store is an internal/seglog segment log (ns-XXXXXXXX.seg,
// no header extension; see docs/PERSISTENCE.md for segments, frames,
// rotation, repair and sync policies, none of which are restated here).
// A frame is a committed batch, or a chunk of one, at one height:
//
//	uvarint height | kind | uvarint count | count x { 32B node hash | uvarint len | payload }
//
// and a payload is the node compressed (internal/lz) against the records
// before it in its window, at most 16 of the same frame, keys included:
// uvarint back (the bytes from the record's key back to its window's
// first) | lz encoding (batch.go). The key stays raw, so the open-time
// scan indexes without inflating anything.
//
// Records are immutable and content-addressed: the hash IS the key, so
// duplicate appends are idempotent and crash-duplicated records (e.g.
// from an interrupted compaction) are harmless. The frame's CRC covers
// the batch and is checked by every scan; a single record is read back
// by a positioned read of its own bytes, and one more of the records of
// its window before it, which the key stored with it and the content
// hash its reader recomputes vouch for (a node that fails to inflate or
// to decode is ErrCorrupt, and so are the later records of its window).
// The in-memory index (index.go) keys on the first 64 bits of the hash
// and holds a packed location, 20 to 30 bytes a record; it is rebuilt by
// scanning the segments at Open.
// Segments are sealed by an fsync before rotation, so only the newest
// can carry crash damage: a torn tail there is repaired, damage in a
// sealed segment is ErrCorrupt and Open refuses.
//
// Commits are batched and atomic-by-construction: a Batch stages
// encoded nodes, Commit appends them children-before-root (the trie
// layers guarantee that order), fsyncs per the configured policy, and
// only then publishes the index entries. A crash mid-batch leaves whole
// frames of a prefix of the batch on disk — unreachable garbage, never
// a dangling reference — because the root is the last record of the
// batch's last frame, and a torn frame yields no record at all.
//
// Reads go through a byte-budgeted LRU cache of decoded nodes, so the
// RAM footprint of a served trie is bounded by the cache budget rather
// than by state size. Hit/miss/eviction counters are exported through
// internal/metrics.
//
// Pruning is mark-and-compact: the trie layers mark every node
// reachable from the retained roots, and every record one of theirs is
// built from (Marker.KeepBase), then Compact rewrites the sealed
// segments that hold a record below a height floor, dropping those of
// them that are unmarked (records at or above the floor are kept
// unconditionally so in-flight commits are never swept; the heights are
// the frames', read by the scan, not kept per record). Compaction copies
// live records into the active segment before deleting a victim
// segment, so a crash at any point leaves every live record present in
// at least one segment.
package nodestore

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/lz"
	"dcsledger/internal/metrics"
	"dcsledger/internal/seglog"
	"dcsledger/internal/wire"
)

// Format constants.
const (
	// segMagic opens every segment file (8 bytes, versioned). Open
	// refuses the segments of the formats it replaced (format.Replaced):
	// DCSNS001, a record a frame; DCSNS002, whose accounts were those of
	// the transaction encoding before compact keys; DCSNS003, whose trie
	// branches were never deltas; and DCSNS004, whose trie leaves were
	// records of their own.
	segMagic = "DCSNS005"
	// MaxNodeLen bounds one encoded node so a garbled length field can
	// never force a huge allocation during an index rebuild.
	MaxNodeLen = 4 << 20
	// maxFrameBody is where a batch is cut into a further frame, counted
	// in records as they would be stored uncompressed.
	maxFrameBody = 64 << 10
	// maxSegmentSize bounds Options.SegmentSize: a segment, with the
	// frame that carries it past its size, stays addressable by an index
	// entry's offset field.
	maxSegmentSize = 128 << 20
)

// format is the node store's segment file format.
var format = seglog.Format{Prefix: "ns-", Magic: segMagic, MaxBody: frameOverhead + recordLen(maxPayloadLen), Replaced: []string{"DCSNS001", "DCSNS002", "DCSNS003", "DCSNS004"}}

// DefaultSegmentSize is the rotation threshold for segment files.
const DefaultSegmentSize = 8 << 20

// DefaultCacheBytes is the decoded-node cache budget.
const DefaultCacheBytes = 64 << 20

// Store errors, matchable with errors.Is.
var (
	// ErrClosed is returned by operations after Close.
	ErrClosed = seglog.ErrClosed
	// ErrNotFound reports a node hash absent from the store.
	ErrNotFound = errors.New("nodestore: node not found")
	// ErrCorrupt reports an invalid frame in the interior of the store
	// (a torn tail on the newest segment is repaired, not reported).
	ErrCorrupt = errors.New("nodestore: corrupt segment")
	// ErrTooLarge rejects nodes over MaxNodeLen.
	ErrTooLarge = errors.New("nodestore: node too large")
)

// SyncPolicy selects when appended batches are forced to stable
// storage: at every batch commit, at most once per
// seglog.DefaultSyncEvery, or never. It is the WAL's policy type
// (seglog.SyncPolicy), so one parsed -fsync value configures both stores.
type SyncPolicy = seglog.SyncPolicy

// The sync policies.
const (
	SyncAlways   = seglog.SyncAlways
	SyncInterval = seglog.SyncInterval
	SyncNever    = seglog.SyncNever
)

// ParseSyncPolicy parses "always", "interval", or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return seglog.ParseSyncPolicy(s) }

// Options configures a Store.
type Options struct {
	// SegmentSize rotates the active segment once it exceeds this many
	// bytes (0 = DefaultSegmentSize; at most 128 MiB, what an index
	// entry's offset addresses).
	SegmentSize int64
	// Sync is the batch-commit flush policy (default SyncAlways).
	Sync SyncPolicy
	// CacheBytes is the decoded-node cache budget (0 = DefaultCacheBytes,
	// negative = no cache).
	CacheBytes int64
	// Clock supplies time for the interval policy (nil = wall clock).
	Clock func() time.Time
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Records     int    // live index entries
	Segments    int    // live segment files
	Bytes       uint64 // frame bytes appended this session
	Appends     uint64 // records published by batch commits this session
	Reads       uint64 // positioned reads of segment files (cache misses, key checks)
	Inflates    uint64 // records inflated by reads (a record, and those of its window before it)
	Syncs       uint64 // explicit fsyncs issued on segment files
	Rotations   uint64 // segment rotations this session
	Compactions uint64 // Compact calls that removed at least one segment
	Dropped     uint64 // records dropped by compaction this session
	TornBytes   uint64 // bytes discarded repairing the tail at Open
	CacheHits   uint64
	CacheMisses uint64
	CacheEvicts uint64
	CacheBytes  int64 // decoded bytes currently cached
	CacheCap    int64 // cache budget
}

// Store is a disk-backed node store. It is safe for concurrent use:
// reads are lock-free after the index lookup, writes serialize on the
// store mutex (batch commit is the single-writer path, matching the
// WAL's concurrency contract).
type Store struct {
	mu        sync.Mutex
	dir       string
	log       *seglog.Log
	ix        *index
	minHeight map[uint64]uint64 // per segment, the lowest height of its frames
	frameBody int               // where a batch is cut into a further frame
	w         frameWriter
	cache     *nodeCache

	stats struct {
		appends, compactions, dropped uint64
	}
	reads, inflates atomic.Uint64 // counted outside the mutex, where reads happen
}

// Open opens (or creates) a node store in dir, rebuilding the index by
// scanning every segment. A torn or garbled tail on the newest segment
// is truncated; damage in an older segment is reported as ErrCorrupt
// (compaction never leaves one behind). A directory of segments in a
// format this one replaced is refused untouched.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if opts.SegmentSize > maxSegmentSize {
		return nil, fmt.Errorf("nodestore: segment size %d over the limit of %d", opts.SegmentSize, maxSegmentSize)
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = DefaultCacheBytes
	}
	l, err := seglog.Open(dir, format, seglog.Options{
		SegmentSize:  opts.SegmentSize,
		SealWhenFull: true,
		Sync:         opts.Sync,
		Clock:        opts.Clock,
	})
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		log:       l,
		ix:        newIndex(),
		minHeight: make(map[uint64]uint64),
		frameBody: int(min(maxFrameBody, opts.SegmentSize)),
		cache:     newNodeCache(opts.CacheBytes),
	}
	var recs []framed
	damage, err := l.ScanSegments(l.Segments(), nil,
		func(seg uint64, off int64, body []byte) error {
			height, parsed, ok := parseFrame(seg, off, body, recs)
			if recs = parsed; !ok {
				return seglog.ErrDamaged
			}
			s.noteHeight(seg, height)
			for _, r := range recs {
				if err := s.indexScannedLocked(r.key, r.at); err != nil {
					return err
				}
			}
			return nil
		})
	if err == nil && damage != nil {
		if segs := l.Segments(); damage.Seg != segs[len(segs)-1] {
			err = fmt.Errorf("%w: %s", ErrCorrupt, format.SegmentName(damage.Seg))
		} else {
			err = l.Repair(*damage)
		}
	}
	if err == nil {
		err = l.Activate(nil)
	}
	if errors.Is(err, seglog.ErrReplaced) {
		err = fmt.Errorf("nodestore: %w: remove %s and restart, and recovery rebuilds the state from the journal", err, dir)
	}
	if err != nil {
		_ = l.Close() // read handles only: nothing was opened for writing
		return nil, err
	}
	return s, nil
}

// RegisterMetrics exports the store through reg: one counter set, read
// once per scrape, of the store's own counts and the segment log's, the
// latter under the names the WAL's have.
func (s *Store) RegisterMetrics(reg *metrics.Registry) {
	reg.Collect(func(emit func(string, int64)) {
		st := s.Stats()
		emit("nodestore_reads_total", int64(st.Reads))
		emit("nodestore_appends_total", int64(st.Appends))
		emit("nodestore_compactions_total", int64(st.Compactions))
		emit("nodestore_records", int64(st.Records))
		emit("nodestore_segments", int64(st.Segments))
		emit("nodestore_cache_hits_total", int64(st.CacheHits))
		emit("nodestore_cache_misses_total", int64(st.CacheMisses))
		emit("nodestore_cache_evictions_total", int64(st.CacheEvicts))
		emit("nodestore_cache_bytes", st.CacheBytes)
		emit("nodestore_fsyncs_total", int64(st.Syncs))
		emit("nodestore_bytes_written_total", int64(st.Bytes))
		emit("nodestore_rotations_total", int64(st.Rotations))
		emit("nodestore_torn_truncated_bytes_total", int64(st.TornBytes))
	})
}

// indexScannedLocked indexes a record the open-time scan found. The
// same hash may come by twice (an interrupted compaction copied it
// forward): the later copy wins.
func (s *Store) indexScannedLocked(h cryptoutil.Hash, at loc) error {
	held, exact := s.ix.lookup(h)
	if held != 0 && !exact {
		key, err := s.keyAtLocked(held)
		if err != nil {
			return err
		}
		exact = key == h
	}
	if exact {
		s.ix.move(h, at)
	} else {
		s.ix.add(h, at)
	}
	return nil
}

// keyAtLocked reads the key of the record at l.
func (s *Store) keyAtLocked(l loc) (h cryptoutil.Hash, err error) {
	if s.log.Closed() {
		return h, ErrClosed
	}
	f, err := s.log.Reader(l.seg())
	if err == nil {
		s.reads.Add(1)
		_, err = f.ReadAt(h[:], l.off())
	}
	if err != nil {
		return h, fmt.Errorf("nodestore: read key in segment %d: %w", l.seg(), err)
	}
	return h, nil
}

// lookupLocked returns where the record of h lies. A table entry under
// h's prefix is believed only if the key on disk there is h; when that
// key cannot be read, h counts as held: the read that follows reports
// the failure, where a miss would let a sweep take the record for dead.
func (s *Store) lookupLocked(h cryptoutil.Hash) (loc, bool) {
	l, exact := s.ix.lookup(h)
	if l != 0 && !exact {
		if key, err := s.keyAtLocked(l); err == nil && key != h {
			return 0, false
		}
	}
	return l, l != 0
}

// Has reports whether the store holds a record for h.
func (s *Store) Has(h cryptoutil.Hash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.lookupLocked(h)
	return ok
}

// errBadRecord marks bytes at an indexed place that are not the record
// the index entry describes.
var errBadRecord = errors.New("malformed record")

// readRecord reads the record at l from f: one positioned read of the
// length the index holds, a second only for a payload longer than that
// field counts. payload, as stored, is a fresh slice.
func (s *Store) readRecord(f io.ReaderAt, l loc) (key cryptoutil.Hash, payload []byte, err error) {
	buf := make([]byte, recordLen(l.len()))
	s.reads.Add(1)
	if _, err := f.ReadAt(buf, l.off()); err != nil {
		return key, nil, err
	}
	rest := buf[copy(key[:], buf):]
	size, k := wire.Uvarint(rest)
	rest = rest[k:]
	// Only a length that saturated the index's field may leave a rest
	// to read.
	more := l.len() == locMaxLen && size > uint64(len(rest))
	if k == 0 || size > maxPayloadLen || size != uint64(len(rest)) && !more {
		return key, nil, errBadRecord
	}
	if !more {
		return key, rest, nil
	}
	payload = make([]byte, size)
	s.reads.Add(1)
	if _, err := f.ReadAt(payload[copy(payload, rest):], l.off()+int64(len(buf))); err != nil {
		return key, nil, err
	}
	return key, payload, nil
}

// readNode reads the record at l from f and returns its key and, if that
// is h, the node it holds. A windowed record that is not its window's
// first takes a second read, of the records of its window before it,
// [off-back, off), at most maxBack bytes, and is inflated after them, in
// order: at most lz.WindowRecords inflates.
func (s *Store) readNode(f io.ReaderAt, l loc, h cryptoutil.Hash) (key cryptoutil.Hash, node []byte, err error) {
	key, payload, err := s.readRecord(f, l)
	if err != nil || key != h {
		return key, payload, err
	}
	back, _, _, ok := lz.Split(payload, MaxNodeLen)
	if !ok || back > maxBack || int64(back) > l.off() {
		return key, nil, errBadRecord
	}
	var held [lz.WindowRecords]framed
	recs := held[:0]
	if back > 0 {
		if recs, err = s.readWindow(recs, f, l.off()-int64(back), back); err != nil {
			return key, nil, err
		}
	}
	recs = append(recs, framed{record{key, payload}, l})
	s.inflates.Add(uint64(len(recs)))
	if node = inflateFrame(recs)[len(recs)-1]; node == nil {
		return key, nil, fmt.Errorf("%w: it or a record of its window before it does not inflate", errBadRecord)
	}
	return key, node, nil
}

// readWindow reads the size bytes at from in f and appends to recs the
// records of a window before its last that they hold, at most
// lz.WindowRecords-1, each at its place; inflation checks their backs.
func (s *Store) readWindow(recs []framed, f io.ReaderAt, from int64, size int) ([]framed, error) {
	buf := make([]byte, size)
	s.reads.Add(1)
	if _, err := f.ReadAt(buf, from); err != nil {
		return nil, err
	}
	for at := 0; at < size; {
		r, n, ok := cutRecord(buf[at:])
		if !ok || len(recs) == lz.WindowRecords-1 {
			return nil, errBadRecord
		}
		recs = append(recs, framed{r, makeLoc(0, from+int64(at), len(r.payload))})
		at += n
	}
	return recs, nil
}

// read fetches the node stored under h. The segment reads happen outside
// the store lock on a handle that stays valid even if a concurrent
// compaction deletes the file (POSIX keeps open files readable); if the
// handle was closed under us the read is retried once against the
// refreshed index. A record that is damaged or does not inflate is
// ErrCorrupt, and so are the later records of its window.
func (s *Store) read(h cryptoutil.Hash) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		if s.log.Closed() {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		l, _ := s.ix.lookup(h)
		if l == 0 {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrNotFound, h.Short())
		}
		f, err := s.log.Reader(l.seg())
		s.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("%w: segment %d: %v", ErrCorrupt, l.seg(), err)
		}
		key, node, err := s.readNode(f, l, h)
		switch {
		case err == nil && key == h:
			return node, nil
		case err == nil: // another hash's record under h's prefix
			return nil, fmt.Errorf("%w: %s", ErrNotFound, h.Short())
		case errors.Is(err, errBadRecord):
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, h.Short(), err)
		case attempt > 0:
			return nil, fmt.Errorf("nodestore: read %s: %w", h.Short(), err)
		}
	}
}

// DecodeFunc turns one raw encoded node into its decoded in-memory
// form. size is the approximate retained footprint in bytes, charged
// against the cache budget; a negative size keeps the node out of the
// cache (one read only for what is built from it). It is a type alias so
// that Store satisfies the trie layers' NodeSource interfaces (declared
// with the unnamed func type, keeping mpt/iavl free of a nodestore import).
type DecodeFunc = func(h cryptoutil.Hash, enc []byte) (v any, size int, err error)

// Node returns the decoded node for h, consulting the LRU cache first
// and decoding through decode on a miss. The decoded value is shared
// between callers and MUST be treated as immutable.
func (s *Store) Node(h cryptoutil.Hash, decode DecodeFunc) (any, error) {
	if v, ok := s.cache.get(h); ok {
		return v, nil
	}
	enc, err := s.read(h)
	if err != nil {
		return nil, err
	}
	v, size, err := decode(h, enc)
	if err != nil {
		// No checksum stands between the disk and this read: the
		// decoder's verdict is how a rotten record shows.
		return nil, fmt.Errorf("%w: decode %s: %w", ErrCorrupt, h.Short(), err)
	}
	if size >= 0 {
		s.cache.add(h, v, int64(size))
	}
	return v, nil
}

// Sync forces the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Sync()
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// SetFailpoint arms a deterministic crash on the nth record appended
// after this call (see seglog.Log.SetFailpoint); tests reopen the
// directory to exercise recovery.
func (s *Store) SetFailpoint(mode seglog.FailMode, nthAppend uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.SetFailpoint(mode, nthAppend)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.log.Stats()
	return Stats{
		Records:     s.ix.len(),
		Segments:    ls.Segments,
		Bytes:       ls.Bytes,
		Appends:     s.stats.appends,
		Reads:       s.reads.Load(),
		Inflates:    s.inflates.Load(),
		Syncs:       ls.Syncs,
		Rotations:   ls.Rotations,
		Compactions: s.stats.compactions,
		Dropped:     s.stats.dropped,
		TornBytes:   ls.TornBytes,
		CacheHits:   s.cache.Hits(),
		CacheMisses: s.cache.Misses(),
		CacheEvicts: s.cache.Evictions(),
		CacheBytes:  s.cache.Bytes(),
		CacheCap:    s.cache.Cap(),
	}
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }
