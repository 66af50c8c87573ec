package nodestore

import (
	"encoding/binary"
	"fmt"
	"slices"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/seglog"
	"dcsledger/internal/wire"
)

// Batch stages encoded nodes for one atomic commit. The trie layers
// append children before parents, so after a crash mid-commit every
// record on disk is either published or unreachable — never a parent
// whose child is missing. A Batch is not safe for concurrent use; its
// Commit serializes on the store mutex.
type Batch struct {
	s      *Store
	height uint64
	order  []cryptoutil.Hash
	nodes  map[cryptoutil.Hash][]byte
}

// NewBatch starts a batch whose records are tagged with the given
// commit height (pruning keeps everything at or above the compaction
// floor, so in-flight heights are never swept).
func (s *Store) NewBatch(height uint64) *Batch {
	return &Batch{
		s:      s,
		height: height,
		nodes:  make(map[cryptoutil.Hash][]byte),
	}
}

// Put stages the encoded node for h. The bytes are copied; staging
// the same hash twice is a no-op (content-addressed).
func (b *Batch) Put(h cryptoutil.Hash, enc []byte) error {
	if len(enc) > MaxNodeLen {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(enc))
	}
	if _, ok := b.nodes[h]; ok {
		return nil
	}
	b.nodes[h] = append([]byte(nil), enc...)
	b.order = append(b.order, h)
	return nil
}

// Has reports whether h is already staged in this batch or present in
// the store — the trie Commit walk uses it to stop descending into
// already-persisted subtrees.
func (b *Batch) Has(h cryptoutil.Hash) bool {
	if _, ok := b.nodes[h]; ok {
		return true
	}
	return b.s.Has(h)
}

// Len returns the number of staged nodes.
func (b *Batch) Len() int { return len(b.order) }

// Commit appends every staged record in staging order, flushes per
// the store's sync policy, and publishes the index entries. On error
// nothing is published (any frames already appended are unreachable
// garbage, reclaimed by the next compaction). The batch is drained
// and reusable afterwards only via a fresh NewBatch.
func (b *Batch) Commit() error {
	if len(b.order) == 0 {
		return nil
	}
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.Closed() {
		return ErrClosed
	}
	recs := make([]record, 0, len(b.order))
	for _, h := range b.order {
		if _, dup := s.lookupLocked(h); !dup { // else on disk already: idempotent by content address
			recs = append(recs, record{h, b.nodes[h]})
		}
	}
	b.order, b.nodes = nil, map[cryptoutil.Hash][]byte{}
	if len(recs) == 0 {
		return nil
	}
	locs, err := s.appendLocked(b.height, recs)
	if err != nil {
		return err
	}
	if err := s.log.MaybeSync(); err != nil {
		return err
	}
	// Publish only after the records (and, under SyncAlways, their
	// fsync) succeeded: a reader can never resolve a hash to bytes
	// that a crash could take away out from under a sealed commit.
	for i, r := range recs {
		s.ix.add(r.key, locs[i])
	}
	s.stats.appends += uint64(len(recs))
	return nil
}

// record is one node as a frame carries it.
type record struct {
	key     cryptoutil.Hash
	payload []byte
}

// A frame body is one batch, or one chunk of a batch too large for a
// frame, all at one height:
//
//	uvarint height | uvarint count | count x { 32B key | uvarint len | payload }
//
// with every uvarint in its shortest form and count at least one, so a
// body has exactly one encoding.

// frameOverhead bounds what a body holds beside its records.
const frameOverhead = 2 * binary.MaxVarintLen64

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// recordLen is the byte length of a record with such a payload.
func recordLen(payloadLen int) int {
	return cryptoutil.HashSize + uvarintLen(uint64(payloadLen)) + payloadLen
}

// frameTakes returns how many of recs the next frame carries: as many as
// fit in limit bytes, and at least one.
func frameTakes(recs []record, limit int) int {
	n, size := 0, 0
	for n < len(recs) {
		if size += recordLen(len(recs[n].payload)); n > 0 && size > limit {
			break
		}
		n++
	}
	return n
}

// encodeFrame appends to dst the frame that carries recs at height.
func encodeFrame(dst []byte, height uint64, recs []record) []byte {
	size := frameOverhead
	for _, r := range recs {
		size += recordLen(len(r.payload))
	}
	body := wire.NewBuffer(size)
	body.Uvarint(height)
	body.Uvarint(uint64(len(recs)))
	for _, r := range recs {
		body.Raw(r.key[:])
		body.VarBlob(r.payload)
	}
	return seglog.AppendFrame(slices.Grow(dst, seglog.FrameHeaderLen+size), body.Bytes())
}

// noteHeight records that segment seg holds a frame at height.
func (s *Store) noteHeight(seg, height uint64) {
	if lo, ok := s.minHeight[seg]; !ok || height < lo {
		s.minHeight[seg] = height
	}
}

// appendLocked writes recs at height as frames (see frameTakes), in
// order, and returns where each record landed. Nothing is synced or
// indexed.
func (s *Store) appendLocked(height uint64, recs []record) ([]loc, error) {
	locs := make([]loc, 0, len(recs))
	var frame []byte
	for len(recs) > 0 {
		n := frameTakes(recs, s.frameBody)
		frame = encodeFrame(frame[:0], height, recs[:n])
		seg, off, err := s.log.Append(frame, nil)
		if err != nil {
			return nil, err
		}
		if seg > maxSegment {
			return nil, fmt.Errorf("nodestore: segment %d is beyond what an index entry addresses", seg)
		}
		s.noteHeight(seg, height)
		off += int64(seglog.FrameHeaderLen + uvarintLen(height) + uvarintLen(uint64(n)))
		for _, r := range recs[:n] {
			locs = append(locs, makeLoc(seg, off, len(r.payload)))
			off += int64(recordLen(len(r.payload)))
		}
		recs = recs[n:]
	}
	return locs, nil
}

// parseFrame decodes the body of the frame at off in segment seg into
// recs[:0] (keys copied, payloads aliasing body). ok is false unless body
// is the one encoding of its content.
func parseFrame(seg uint64, off int64, body []byte, recs []framed) (height uint64, _ []framed, ok bool) {
	recs = recs[:0]
	height, n := wire.Uvarint(body)
	count, m := wire.Uvarint(body[n:])
	if n == 0 || m == 0 || count == 0 {
		return 0, recs, false
	}
	for at := n + m; at < len(body); {
		if len(body)-at < cryptoutil.HashSize {
			return 0, recs, false
		}
		var r framed
		keyAt := off + int64(seglog.FrameHeaderLen+at)
		at += copy(r.key[:], body[at:])
		size, k := wire.Uvarint(body[at:])
		if k == 0 || size > MaxNodeLen || uint64(len(body)-at-k) < size {
			return 0, recs, false
		}
		r.payload = body[at+k : at+k+int(size)]
		r.at = makeLoc(seg, keyAt, int(size))
		at += k + int(size)
		recs = append(recs, r)
	}
	return height, recs, uint64(len(recs)) == count
}

// framed is a record as parseFrame found it, and where.
type framed struct {
	record
	at loc
}
