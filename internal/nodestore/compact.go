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
	keep map[cryptoutil.Hash]bool // true: kept by Keep, its subtree walked
}

// NewMarker returns an empty mark set.
func NewMarker() *Marker {
	return &Marker{keep: make(map[cryptoutil.Hash]bool)}
}

// Keep marks h live as a node of a walked trie. It returns false if h
// was already kept so, which lets trie walks stop at shared subtrees.
func (m *Marker) Keep(h cryptoutil.Hash) bool {
	walked := m.keep[h]
	m.keep[h] = true
	return !walked
}

// KeepBase marks h live as a record another is built from, not its
// subtree. It returns false if h was already marked either way.
func (m *Marker) KeepBase(h cryptoutil.Hash) bool {
	if _, ok := m.keep[h]; ok {
		return false
	}
	m.keep[h] = false
	return true
}

// Marked reports whether h is in the mark set.
func (m *Marker) Marked(h cryptoutil.Hash) bool {
	_, ok := m.keep[h]
	return ok
}

// SealedBelow reports whether a sealed segment holds a record committed
// below floor: whether Compact(m, floor) could drop anything, whatever m
// marks. It reads nothing.
func (s *Store) SealedBelow(floor uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := s.log.Segments()
	for _, seg := range segs[:len(segs)-1] {
		if s.minHeight[seg] < floor {
			return true
		}
	}
	return false
}

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
	dropped := 0
	for _, seg := range segs[:len(segs)-1] {
		if s.minHeight[seg] >= floor {
			continue
		}
		n, err := s.compactSegmentLocked(seg, m, floor)
		dropped += n
		if err != nil {
			return dropped, err
		}
	}
	if dropped > 0 {
		s.stats.compactions++
		s.stats.dropped += uint64(dropped)
	}
	return dropped, nil
}

// compactSegmentLocked rewrites seg if it holds a dead record: its live
// records are copied into the active segment and fsynced, their index
// entries republished, the dead ones dropped from the index and the
// decoded cache, and seg deleted. It returns how many were dropped.
func (s *Store) compactSegmentLocked(seg uint64, m *Marker, floor uint64) (int, error) {
	dead, err := s.sweepSegmentLocked(seg, m, floor, false)
	if err != nil || dead == 0 {
		return 0, err
	}
	if _, err := s.sweepSegmentLocked(seg, m, floor, true); err != nil {
		return 0, err
	}
	// Durability point: the copies must be on stable storage before
	// the originals can go away.
	if err := s.log.Sync(); err != nil {
		return 0, err
	}
	delete(s.minHeight, seg)
	return dead, s.log.Remove(seg)
}

// sweepSegmentLocked scans seg and counts its dead records: below the
// floor, unmarked, and the copy the index names (one it places elsewhere
// is superseded, neither live nor dead). With rewrite it also drops them
// from the index and copies the live ones forward, frame by frame, each
// frame inflated and its live nodes written in windows of their own.
func (s *Store) sweepSegmentLocked(seg uint64, m *Marker, floor uint64, rewrite bool) (dead int, err error) {
	var (
		recs []framed
		keep []int // of recs
		live []record
	)
	_, err = s.log.ScanSegment(seg, nil,
		func(off int64, body []byte) error {
			height, parsed, ok := parseFrame(seg, off, body, recs)
			if recs = parsed; !ok {
				return seglog.ErrDamaged
			}
			keep = keep[:0]
			for i, r := range recs {
				switch {
				case !s.ix.holds(r.key, r.at):
				case height < floor && (m == nil || !m.Marked(r.key)):
					dead++
					if rewrite {
						s.ix.remove(r.key)
						s.cache.drop(r.key)
					}
				case rewrite:
					keep = append(keep, i)
				}
			}
			if len(keep) == 0 {
				return nil
			}
			nodes := inflateFrame(recs)
			live = live[:0]
			for _, i := range keep {
				if nodes[i] == nil {
					return fmt.Errorf("%w: record %s does not inflate", seglog.ErrDamaged, recs[i].key.Short())
				}
				live = append(live, record{recs[i].key, nodes[i]})
			}
			to, err := s.appendLocked(height, live)
			if err != nil {
				return fmt.Errorf("nodestore: compact copy: %w", err)
			}
			for i, r := range live {
				s.ix.move(r.key, to[i])
			}
			return nil
		})
	if errors.Is(err, seglog.ErrDamaged) {
		// A sealed segment that scanned clean at Open no longer does.
		err = fmt.Errorf("%w: %s: %v", ErrCorrupt, format.SegmentName(seg), err)
	}
	return dead, err
}
