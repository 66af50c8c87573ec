package nodestore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
	"dcsledger/internal/seglog"
)

// recordingSink stages a trie commit into a batch and remembers what
// was staged, so a test can tell the failed batch's nodes apart.
type recordingSink struct {
	*Batch
	staged map[cryptoutil.Hash][]byte
}

func (r *recordingSink) Put(h cryptoutil.Hash, enc []byte) error {
	r.staged[h] = append([]byte(nil), enc...)
	return r.Batch.Put(h, enc)
}

// commitKeys sets n keys tagged with the height into tr and commits the
// new nodes as one batch at that height.
func commitKeys(t *testing.T, s *Store, tr *mpt.Trie, height uint64, n int) (*mpt.Trie, cryptoutil.Hash) {
	t.Helper()
	for i := 0; i < n; i++ {
		tr = tr.Set([]byte(fmt.Sprintf("key-%03d", (int(height)*7+i*13)%64)), []byte(fmt.Sprintf("value-%d-%d", height, i)))
	}
	b := s.NewBatch(height)
	root, err := tr.Commit(b)
	if err != nil {
		t.Fatalf("trie commit at %d: %v", height, err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("batch commit at %d: %v", height, err)
	}
	return tr, root
}

// walkAll walks root through s and returns how many nodes it reached.
func walkAll(t *testing.T, s *Store, root cryptoutil.Hash) int {
	t.Helper()
	n := 0
	if err := mpt.WalkNodes(s, root, func(cryptoutil.Hash) bool { n++; return true }, nil); err != nil {
		t.Fatalf("walk %s: %v", root.Short(), err)
	}
	return n
}

// TestCrashMatrixNodeStore arms the shared segment-log failpoint on the
// first, a middle and the last frame of a multi-node Batch.Commit, for
// every failure mode and sync policy. The crashed commit must publish
// nothing; after reopen the index holds only whole frames, every root
// committed and synced before it (what a WAL checkpoint would name)
// still walks completely, and a fresh batch commits on top.
func TestCrashMatrixNodeStore(t *testing.T) {
	for _, mode := range []seglog.FailMode{seglog.FailCut, seglog.FailTorn, seglog.FailGarble} {
		for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
			for _, where := range []string{"first", "middle", "last"} {
				t.Run(fmt.Sprintf("%s/%s/%s", mode, policy, where), func(t *testing.T) {
					crashMatrixCell(t, mode, policy, where)
				})
			}
		}
	}
}

func crashMatrixCell(t *testing.T, mode seglog.FailMode, policy SyncPolicy, where string) {
	dir := t.TempDir()
	// 1 KiB segments: the store rotates several times, so some cells
	// crash in a segment the failed batch itself opened.
	opts := Options{Sync: policy, SegmentSize: 1 << 10, CacheBytes: -1}
	s := testOpen(t, dir, opts)

	tr := mpt.New()
	roots := map[string]cryptoutil.Hash{}
	for h := uint64(1); h <= 3; h++ {
		tr, roots[fmt.Sprintf("state-%d", h)] = commitKeys(t, s, tr, h, 12)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	reach := map[string]int{}
	for name, root := range roots {
		reach[name] = walkAll(t, s, root)
	}

	// The doomed batch: block 4's new nodes.
	doomed := tr
	for i := 0; i < 12; i++ {
		doomed = doomed.Set([]byte(fmt.Sprintf("key-%03d", i*5)), []byte(fmt.Sprintf("doomed-%d", i)))
	}
	sink := &recordingSink{Batch: s.NewBatch(4), staged: map[cryptoutil.Hash][]byte{}}
	if _, err := doomed.Commit(sink); err != nil {
		t.Fatal(err)
	}
	n := sink.Len()
	if n < 3 {
		t.Fatalf("doomed batch has %d nodes, need a multi-node batch", n)
	}
	nth := map[string]int{"first": 1, "middle": n/2 + 1, "last": n}[where]
	before := s.Len()
	s.SetFailpoint(mode, uint64(nth))
	if err := sink.Commit(); !errors.Is(err, seglog.ErrCrashed) {
		t.Fatalf("commit at failpoint: %v, want ErrCrashed", err)
	}
	if s.Len() != before {
		t.Fatalf("crashed commit published %d records", s.Len()-before)
	}
	for h := range sink.staged {
		if s.Has(h) {
			t.Fatalf("crashed commit published %s", h.Short())
		}
	}
	s.Close()

	// Reopen: the frames written before the crash are whole and indexed
	// (unreachable garbage until a later batch names them), the torn or
	// garbled one is gone, and nothing else was lost.
	s2 := testOpen(t, dir, opts)
	if got, want := s2.Len(), before+nth-1; got != want {
		t.Fatalf("reopened index holds %d records, want %d", got, want)
	}
	if torn := s2.Stats().TornBytes; (mode == seglog.FailCut) != (torn == 0) {
		t.Fatalf("mode %s: %d torn bytes", mode, torn)
	}
	for h, enc := range sink.staged {
		if !s2.Has(h) {
			continue
		}
		if got, err := s2.Get(h); err != nil || !bytes.Equal(got, enc) {
			t.Fatalf("surviving frame %s: %v", h.Short(), err)
		}
	}
	for name, root := range roots {
		if got := walkAll(t, s2, root); got != reach[name] {
			t.Fatalf("root %s walks %d nodes, want %d", name, got, reach[name])
		}
	}

	// A fresh batch on top of the checkpointed root commits and walks.
	next, root := commitKeys(t, s2, mpt.Load(roots["state-3"], tr.Len(), s2), 4, 12)
	if walkAll(t, s2, root) == 0 || next.RootHash() != root {
		t.Fatalf("fresh batch after recovery did not produce a walkable root")
	}
}
