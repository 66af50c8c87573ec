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
// A record body is:
//
//	u64 height | 32B node hash | payload (the encoded trie node)
//
// Records are immutable and content-addressed: the hash IS the key, so
// duplicate appends are idempotent and crash-duplicated records (e.g.
// from an interrupted compaction) are harmless. The in-memory
// hash→(segment, offset) index is rebuilt by scanning the segments at
// Open. Segments are sealed by an fsync before rotation, so only the
// newest can carry crash damage: a torn tail there is repaired, damage
// in a sealed segment is ErrCorrupt and Open refuses.
//
// Commits are batched and atomic-by-construction: a Batch stages
// encoded nodes, Commit appends them children-before-root (the trie
// layers guarantee that order), fsyncs per the configured policy, and
// only then publishes the index entries. A crash mid-batch leaves a
// prefix of the batch on disk — unreachable garbage, never a dangling
// reference — because the root is the last record of its batch.
//
// Reads go through a byte-budgeted LRU cache of decoded nodes, so the
// RAM footprint of a served trie is bounded by the cache budget rather
// than by state size. Hit/miss/eviction counters are exported through
// internal/metrics.
//
// Pruning is mark-and-compact: the trie layers mark every node
// reachable from the retained roots, then Compact rewrites segments
// dropping unmarked records older than a height floor (records at or
// above the floor are kept unconditionally so in-flight commits are
// never swept). Compaction copies live records into the active segment
// before deleting a victim segment, so a crash at any point leaves
// every live record present in at least one segment.
package nodestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/metrics"
	"dcsledger/internal/seglog"
)

// Format constants.
const (
	// segMagic opens every segment file (8 bytes, versioned).
	segMagic = "DCSNS001"
	// recordHeaderLen is u64 height + 32B node hash inside the body.
	recordHeaderLen = 8 + cryptoutil.HashSize
	// MaxNodeLen bounds one encoded node so a garbled length field can
	// never force a huge allocation during an index rebuild.
	MaxNodeLen = 4 << 20
)

// format is the node store's segment file format.
var format = seglog.Format{Prefix: "ns-", Magic: segMagic, MaxBody: MaxNodeLen + recordHeaderLen}

// DefaultSegmentSize is the rotation threshold for segment files.
const DefaultSegmentSize = 8 << 20

// DefaultCacheBytes is the decoded-node cache budget.
const DefaultCacheBytes = 64 << 20

// DefaultSyncEvery is the flush cadence of the interval sync policy.
const DefaultSyncEvery = seglog.DefaultSyncEvery

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
// storage: at every batch commit, at most once per SyncEvery, or never.
// It is the WAL's policy type (wal.FsyncPolicy), so one parsed -fsync
// value configures both stores.
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
	// bytes (0 = DefaultSegmentSize).
	SegmentSize int64
	// Sync is the batch-commit flush policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the interval policy's cadence (0 = DefaultSyncEvery).
	SyncEvery time.Duration
	// CacheBytes is the decoded-node cache budget (0 = DefaultCacheBytes,
	// negative = no cache).
	CacheBytes int64
	// Clock supplies time for the interval policy (nil = wall clock).
	Clock func() time.Time
	// Metrics optionally exports cache and store counters.
	Metrics *metrics.Registry
}

// ref locates one record on disk: the frame starts at off within
// segment seg and spans n bytes including the frame header.
type ref struct {
	seg    uint64
	off    int64
	n      int32
	height uint64
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Records     int    // live index entries
	Segments    int    // live segment files
	Bytes       uint64 // frame bytes appended this session
	Appends     uint64 // records published by batch commits this session
	Reads       uint64 // raw record reads (cache misses + Get calls)
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
	mu    sync.Mutex
	dir   string
	log   *seglog.Log
	index map[cryptoutil.Hash]ref
	cache *nodeCache

	stats struct {
		appends, reads, compactions, dropped uint64
	}
}

// Open opens (or creates) a node store in dir, rebuilding the
// hash→offset index by scanning every segment. A torn or garbled tail
// on the newest segment is truncated; damage in an older segment is
// reported as ErrCorrupt (compaction never leaves one behind).
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = DefaultCacheBytes
	}
	l, err := seglog.Open(dir, format, seglog.Options{
		SegmentSize:  opts.SegmentSize,
		SealWhenFull: true,
		Sync:         opts.Sync,
		SyncEvery:    opts.SyncEvery,
		Clock:        opts.Clock,
	})
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		log:   l,
		index: make(map[cryptoutil.Hash]ref),
		cache: newNodeCache(opts.CacheBytes),
	}
	damage, err := l.Scan(nil,
		func(seg uint64, off int64, body []byte) error {
			height, h, _, ok := decodeRecord(body)
			if !ok {
				return seglog.ErrDamaged
			}
			s.index[h] = ref{seg: seg, off: off, n: int32(seglog.FrameHeaderLen + len(body)), height: height}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if damage != nil {
		if segs := l.Segments(); damage.Seg != segs[len(segs)-1] {
			return nil, fmt.Errorf("%w: %s", ErrCorrupt, format.SegmentName(damage.Seg))
		}
		if err := l.Repair(*damage); err != nil {
			return nil, err
		}
	}
	if err := l.Activate(nil); err != nil {
		return nil, err
	}
	if reg := opts.Metrics; reg != nil {
		// One counter set, read once per scrape: the store's own counts
		// and the segment log's, the latter under the names the WAL's have.
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
	return s, nil
}

// Has reports whether the store holds a record for h.
func (s *Store) Has(h cryptoutil.Hash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[h]
	return ok
}

// Len returns the number of records in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Height returns the commit height recorded for h.
func (s *Store) Height(h cryptoutil.Hash) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.index[h]
	return r.height, ok
}

// Get returns the raw encoded node stored under h (a fresh copy). It
// bypasses the decoded cache; resolution-path readers use Node.
func (s *Store) Get(h cryptoutil.Hash) ([]byte, error) {
	_, payload, err := s.read(h)
	return payload, err
}

// read fetches and CRC-verifies the record for h. The segment read
// happens outside the store lock on a handle that stays valid even if
// a concurrent compaction deletes the file (POSIX keeps open files
// readable); if the handle was closed under us the read is retried
// once against the refreshed index.
func (s *Store) read(h cryptoutil.Hash) (uint64, []byte, error) {
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		if s.log.Closed() {
			s.mu.Unlock()
			return 0, nil, ErrClosed
		}
		r, ok := s.index[h]
		if !ok {
			s.mu.Unlock()
			return 0, nil, fmt.Errorf("%w: %s", ErrNotFound, h.Short())
		}
		f, err := s.log.Reader(r.seg)
		s.stats.reads++
		s.mu.Unlock()
		if err != nil {
			return 0, nil, fmt.Errorf("%w: segment %d: %v", ErrCorrupt, r.seg, err)
		}
		body, err := seglog.ReadFrameAt(f, r.off, int(r.n))
		if err == nil {
			height, got, payload, ok := decodeRecord(body)
			if !ok || got != h {
				return 0, nil, fmt.Errorf("%w: hash mismatch (index %s, record %s)", ErrCorrupt, h.Short(), got.Short())
			}
			return height, payload, nil
		}
		if errors.Is(err, seglog.ErrDamaged) {
			return 0, nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, h.Short(), err)
		}
		if attempt > 0 {
			return 0, nil, err
		}
	}
}

// DecodeFunc turns one raw encoded node into its decoded in-memory
// form. size is the approximate retained footprint in bytes, charged
// against the cache budget. It is a type alias so that Store satisfies
// the trie layers' NodeSource interfaces (declared with the unnamed
// func type, keeping mpt/iavl free of a nodestore import).
type DecodeFunc = func(h cryptoutil.Hash, enc []byte) (v any, size int, err error)

// Node returns the decoded node for h, consulting the LRU cache first
// and decoding through decode on a miss. The decoded value is shared
// between callers and MUST be treated as immutable.
func (s *Store) Node(h cryptoutil.Hash, decode DecodeFunc) (any, error) {
	if v, ok := s.cache.get(h); ok {
		return v, nil
	}
	_, enc, err := s.read(h)
	if err != nil {
		return nil, err
	}
	v, size, err := decode(h, enc)
	if err != nil {
		return nil, fmt.Errorf("nodestore: decode %s: %w", h.Short(), err)
	}
	s.cache.add(h, v, int64(size))
	return v, nil
}

// encodeFrame appends the frame for (height, h, payload) to dst.
func encodeFrame(dst []byte, height uint64, h cryptoutil.Hash, payload []byte) []byte {
	var hdr [recordHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[:8], height)
	copy(hdr[8:], h[:])
	return seglog.AppendFrame(dst, hdr[:], payload)
}

// decodeRecord parses a frame body; false if it is too short to hold a
// record header. payload aliases body.
func decodeRecord(body []byte) (height uint64, h cryptoutil.Hash, payload []byte, ok bool) {
	if len(body) < recordHeaderLen {
		return 0, h, nil, false
	}
	copy(h[:], body[8:])
	return binary.BigEndian.Uint64(body), h, body[recordHeaderLen:], true
}

// appendLocked writes one record through the segment log and returns
// its index entry; the caller publishes it once the data is synced.
func (s *Store) appendLocked(frame []byte, height uint64) (ref, error) {
	seg, off, err := s.log.Append(frame, nil)
	if err != nil {
		return ref{}, err
	}
	return ref{seg: seg, off: off, n: int32(len(frame)), height: height}, nil
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
		Records:     len(s.index),
		Segments:    ls.Segments,
		Bytes:       ls.Bytes,
		Appends:     s.stats.appends,
		Reads:       s.stats.reads,
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
