package nodestore

import (
	"fmt"

	"dcsledger/internal/cryptoutil"
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
// nothing is published (any partially appended frames are unreachable
// garbage, reclaimed by the next compaction). The batch is drained
// and reusable afterwards only via a fresh NewBatch.
func (b *Batch) Commit() error {
	if len(b.order) == 0 {
		return nil
	}
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitBatchLocked(b)
}

func (s *Store) commitBatchLocked(b *Batch) error {
	if s.log.Closed() {
		return ErrClosed
	}
	refs := make(map[cryptoutil.Hash]ref, len(b.order))
	var frame []byte
	for _, h := range b.order {
		if _, dup := s.index[h]; dup {
			continue // already on disk — idempotent by content address
		}
		frame = encodeFrame(frame[:0], b.height, h, b.nodes[h])
		r, err := s.appendLocked(frame, b.height)
		if err != nil {
			return err
		}
		refs[h] = r
	}
	if len(refs) == 0 {
		b.order, b.nodes = nil, map[cryptoutil.Hash][]byte{}
		return nil
	}
	if err := s.log.MaybeSync(); err != nil {
		return err
	}
	// Publish only after the records (and, under SyncAlways, their
	// fsync) succeeded: a reader can never resolve a hash to bytes
	// that a crash could take away out from under a sealed commit.
	for h, r := range refs {
		s.index[h] = r
	}
	s.stats.appends += uint64(len(refs))
	b.order, b.nodes = nil, map[cryptoutil.Hash][]byte{}
	return nil
}
