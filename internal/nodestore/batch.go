package nodestore

import (
	"encoding/binary"
	"fmt"
	"slices"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/lz"
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

// record is one node under its key: as staged, or as a frame stores it.
type record struct {
	key     cryptoutil.Hash
	payload []byte
}

// A frame body is one batch, or one chunk of a batch too large for a
// frame, all at one height:
//
//	uvarint height | kindNodes | uvarint count | count x { 32B key | uvarint len | payload }
//
// and each payload is a node compressed against the records before it in
// its window:
//
//	uvarint back | lz encoding of the node
//
// back is how many bytes before this record's key the key of its window's
// first record lies, 0 for that first record: an lz.Chain whose positions
// are the bytes of the frame. The encoding's copies may reach into the
// window: key and node of every earlier record in it, then this record's
// own key. A window restarts at the first record of every frame, after
// lz.WindowRecords records, and before its keys and nodes would pass
// windowCap bytes.
//
// The kind byte names what the records are, so that a frame can one day
// carry another kind.
//
// Every uvarint is in its shortest form and count at least one, so a body
// has exactly one framing.

const (
	// kindNodes is the one kind of record a frame carries: trie nodes,
	// storage trie nodes and code, each under its hash.
	kindNodes = 1
	// windowCap bounds the keys and nodes of a window of more than one
	// record, so that a large code record cannot make reads big.
	windowCap = 4 << 10
	// maxBack bounds back: what the records of a window before its last
	// take on disk, at most 15 keys and nodes of windowCap bytes in all,
	// each node grown by at most one byte in 64 and its framing.
	maxBack = 2 * windowCap
	// maxPayloadLen bounds a stored payload: back, and the encoding of a
	// node of MaxNodeLen bytes, lz.MaxEncodedLen(MaxNodeLen).
	maxPayloadLen = 2*binary.MaxVarintLen64 + MaxNodeLen + MaxNodeLen/64
)

// frameOverhead bounds what a body holds beside its records.
const frameOverhead = 2*binary.MaxVarintLen64 + 1

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

// frameTakes returns how many of recs, nodes as staged, the next frame
// carries: as many as fit in limit bytes uncompressed, and at least one.
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

// frameWriter compresses records into frames. Its encoder and buffers are
// reused from frame to frame; it is not safe for concurrent use.
type frameWriter struct {
	enc     lz.Encoder
	body, z []byte
}

// frame appends to dst the frame that carries recs, nodes as staged, at
// height.
func (w *frameWriter) frame(dst []byte, height uint64, recs []record) []byte {
	body := binary.AppendUvarint(w.body[:0], height)
	body = append(body, kindNodes)
	body = binary.AppendUvarint(body, uint64(len(recs)))
	window := lz.Chain{Cap: windowCap}
	for _, r := range recs {
		at, size := len(body), cryptoutil.HashSize+len(r.payload)
		back := window.Back(at, size)
		if back == 0 {
			w.enc.Reset()
		}
		window.Admit(at, back, size)
		body = append(body, r.key[:]...)
		w.enc.Extend(append(w.enc.Window(), r.key[:]...))
		w.z = w.enc.Next(lz.AppendBack(w.z[:0], back), append(w.enc.Window(), r.payload...), 0)
		body = binary.AppendUvarint(body, uint64(len(w.z)))
		body = append(body, w.z...)
	}
	w.body = body
	return seglog.AppendFrame(slices.Grow(dst, seglog.FrameHeaderLen+len(body)), body)
}

// noteHeight records that segment seg holds a frame at height.
func (s *Store) noteHeight(seg, height uint64) {
	if lo, ok := s.minHeight[seg]; !ok || height < lo {
		s.minHeight[seg] = height
	}
}

// appendLocked writes recs, nodes as staged, at height as frames (see
// frameTakes), in order, and returns where each record landed. Nothing is
// synced or indexed.
func (s *Store) appendLocked(height uint64, recs []record) ([]loc, error) {
	locs := make([]loc, 0, len(recs))
	var (
		frame  []byte
		landed []framed
	)
	for len(recs) > 0 {
		n := frameTakes(recs, s.frameBody)
		frame = s.w.frame(frame[:0], height, recs[:n])
		seg, off, err := s.log.Append(frame, nil)
		if err != nil {
			return nil, err
		}
		if seg > maxSegment {
			return nil, fmt.Errorf("nodestore: segment %d is beyond what an index entry addresses", seg)
		}
		s.noteHeight(seg, height)
		_, landed, _ = parseFrame(seg, off, frame[seglog.FrameHeaderLen:], landed)
		for _, r := range landed {
			locs = append(locs, r.at)
		}
		recs = recs[n:]
	}
	return locs, nil
}

// parseFrame decodes the body of the frame at off in segment seg into
// recs[:0] (keys copied, payloads as stored, aliasing body). ok is false
// unless body is the one framing of its content and every window in it
// keeps to its bounds; nothing is inflated.
func parseFrame(seg uint64, off int64, body []byte, recs []framed) (height uint64, _ []framed, ok bool) {
	recs = recs[:0]
	height, n := wire.Uvarint(body)
	if n == 0 || n == len(body) || body[n] != kindNodes {
		return 0, recs, false
	}
	count, m := wire.Uvarint(body[n+1:])
	if m == 0 || count == 0 {
		return 0, recs, false
	}
	window := lz.Chain{Cap: windowCap}
	for at := n + 1 + m; at < len(body); {
		r, k, ok := cutRecord(body[at:])
		if !ok {
			return 0, recs, false
		}
		back, _, size, split := lz.Split(r.payload, MaxNodeLen)
		if !split || back > maxBack || !window.Admit(at, back, cryptoutil.HashSize+size) {
			return 0, recs, false
		}
		recs = append(recs, framed{r, makeLoc(seg, off+int64(seglog.FrameHeaderLen+at), len(r.payload))})
		at += k
	}
	return height, recs, uint64(len(recs)) == count
}

// cutRecord splits off the record at the front of b, its key copied, its
// payload aliasing b, and returns how many bytes it takes.
func cutRecord(b []byte) (r record, n int, ok bool) {
	if len(b) < cryptoutil.HashSize {
		return r, 0, false
	}
	n = copy(r.key[:], b)
	size, k := wire.Uvarint(b[n:])
	if k == 0 || size > maxPayloadLen || uint64(len(b)-n-k) < size {
		return r, 0, false
	}
	n += k
	r.payload = b[n : n+int(size)]
	return r, n + int(size), true
}

// framed is a record as parseFrame found it, and where.
type framed struct {
	record
	at loc
}

// inflateFrame returns the nodes the records of one parsed frame, or of
// one window, hold, in order, each inflated behind its key and its
// window. A record that does not inflate has no node (nil), and neither
// have the later records of its window. The nodes share one buffer of their own, allocated once at what
// the records that keep to their windows' bounds declare.
func inflateFrame(recs []framed) [][]byte {
	nodes := make([][]byte, len(recs))
	size, window := 0, lz.Chain{Cap: windowCap}
	for _, r := range recs {
		back, _, n, ok := lz.Split(r.payload, MaxNodeLen)
		if ok && window.Admit(int(r.at.off()), back, cryptoutil.HashSize+n) {
			size += cryptoutil.HashSize + n
		}
	}
	window = lz.Chain{Cap: windowCap, Keep: true}
	window.Grow(size)
	for i, r := range recs {
		back, enc, n, _ := lz.Split(r.payload, MaxNodeLen)
		nodes[i], _ = window.Inflate(int(r.at.off()), back, cryptoutil.HashSize+n, r.key[:], enc, MaxNodeLen)
	}
	return nodes
}
