package nodestore

import (
	"errors"
	"fmt"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/seglog"
)

// Marker accumulates the set of node hashes reachable from the
// retained trie roots. The trie layers fill it by walking each root
// through their own node structure; Compact then treats everything
// unmarked and below the height floor as garbage.
type Marker struct {
	keep map[cryptoutil.Hash]struct{}
}

// NewMarker returns an empty mark set.
func NewMarker() *Marker {
	return &Marker{keep: make(map[cryptoutil.Hash]struct{})}
}

// Keep marks h live. It returns false if h was already marked, which
// lets trie walks stop at shared subtrees.
func (m *Marker) Keep(h cryptoutil.Hash) bool {
	if _, ok := m.keep[h]; ok {
		return false
	}
	m.keep[h] = struct{}{}
	return true
}

// Marked reports whether h is in the mark set.
func (m *Marker) Marked(h cryptoutil.Hash) bool {
	_, ok := m.keep[h]
	return ok
}

// Len returns the number of marked hashes.
func (m *Marker) Len() int { return len(m.keep) }

// Compact removes records that are neither marked live nor at/above
// the height floor. Live records in victim segments are copied
// forward into the active segment before the victim is deleted, so a
// crash at any point leaves every live record present somewhere —
// duplicates are harmless because records are content-addressed and
// the index rebuild keeps one. Returns the number of records dropped.
func (s *Store) Compact(m *Marker, floor uint64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.Closed() {
		return 0, ErrClosed
	}
	// A sealed segment is a victim if it holds at least one dead
	// record; the active segment is never rewritten in place.
	segs := s.log.Segments()
	active := segs[len(segs)-1]
	dead := make(map[uint64]int)
	for h, r := range s.index {
		if r.seg != active && r.height < floor && (m == nil || !m.Marked(h)) {
			dead[r.seg]++
		}
	}
	if len(dead) == 0 {
		return 0, nil
	}

	dropped := 0
	for _, seg := range segs {
		if dead[seg] == 0 {
			continue
		}
		n, err := s.compactSegmentLocked(seg, m, floor)
		if err != nil {
			return dropped, err
		}
		dropped += n
	}
	s.stats.compactions++
	s.stats.dropped += uint64(dropped)
	return dropped, nil
}

// compactSegmentLocked copies the live records of seg into the active
// segment, fsyncs, republishes their index entries, and deletes seg.
// Dead records are dropped from the index and the decoded cache.
func (s *Store) compactSegmentLocked(seg uint64, m *Marker, floor uint64) (int, error) {
	dropped := 0
	var frame []byte
	_, err := s.log.ScanSegment(seg, nil,
		func(_ int64, body []byte) error {
			height, h, payload, ok := decodeRecord(body)
			if !ok {
				return seglog.ErrDamaged
			}
			r, ok := s.index[h]
			if !ok || r.seg != seg {
				return nil // superseded by a newer copy elsewhere
			}
			if height < floor && (m == nil || !m.Marked(h)) {
				delete(s.index, h)
				s.cache.drop(h)
				dropped++
				return nil
			}
			frame = encodeFrame(frame[:0], height, h, payload)
			r, err := s.appendLocked(frame, height)
			if err != nil {
				return fmt.Errorf("nodestore: compact copy: %w", err)
			}
			s.index[h] = r
			return nil
		})
	if errors.Is(err, seglog.ErrDamaged) {
		// A sealed segment that scanned clean at Open no longer does.
		return dropped, fmt.Errorf("%w: %s: %v", ErrCorrupt, format.SegmentName(seg), err)
	}
	if err != nil {
		return dropped, err
	}
	// Durability point: the copies must be on stable storage before
	// the originals can go away.
	if err := s.log.Sync(); err != nil {
		return dropped, err
	}
	return dropped, s.log.Remove(seg)
}
