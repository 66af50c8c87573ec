package nodestore

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
	"dcsledger/internal/seglog"
)

// recordingSink stages a trie commit into a batch and remembers what
// was staged, in order, so a test can tell the failed batch's nodes
// apart and cut them into the frames the store will.
type recordingSink struct {
	*Batch
	staged []record
}

func (r *recordingSink) Put(h cryptoutil.Hash, enc []byte) error {
	r.staged = append(r.staged, record{h, append([]byte(nil), enc...)})
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
	if err := mpt.WalkNodes(s, root, func(cryptoutil.Hash) bool { n++; return true }, nil, nil); err != nil {
		t.Fatalf("walk %s: %v", root.Short(), err)
	}
	return n
}

// TestCrashMatrixNodeStore arms the shared segment-log failpoint on the
// first, the second, a middle and the last frame of a Batch.Commit
// chunked into several, and on the only frame of one that fits a single
// frame, for every failure mode and sync policy: a cut falls between two
// frames of the batch, a torn or garbled write inside one. The crashed
// commit must publish nothing; after reopen the index holds the records
// of the frames written whole before it and none of the hit frame's or a
// later one's — a window never reaches across frames, so the first
// frame's windowed records read back whole when the second is torn —
// every root committed and synced before (what a WAL checkpoint would
// name) still walks completely, and a fresh batch commits on top.
func TestCrashMatrixNodeStore(t *testing.T) {
	for _, mode := range []seglog.FailMode{seglog.FailCut, seglog.FailTorn, seglog.FailGarble} {
		for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
			for _, where := range []string{"first", "second", "middle", "last", "only"} {
				t.Run(fmt.Sprintf("%s/%s/%s", mode, policy, where), func(t *testing.T) {
					crashMatrixCell(t, mode, policy, where)
				})
			}
		}
	}
}

func crashMatrixCell(t *testing.T, mode seglog.FailMode, policy SyncPolicy, where string) {
	dir := t.TempDir()
	// 512 B segments, and so frames of at most 512 B: the store rotates
	// several times, some cells crash in a segment the failed batch
	// itself opened, and the doomed batch is a handful of frames.
	opts := Options{Sync: policy, SegmentSize: 512, CacheBytes: -1}
	if where == "only" {
		opts.SegmentSize = 1 << 20
	}
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
	sink := &recordingSink{Batch: s.NewBatch(4)}
	if _, err := doomed.Commit(sink); err != nil {
		t.Fatal(err)
	}
	var frames []int // records per frame
	for rest := sink.staged; len(rest) > 0; rest = rest[frames[len(frames)-1]:] {
		frames = append(frames, frameTakes(rest, s.frameBody))
	}
	if (where == "only") != (len(frames) == 1) || where != "only" && len(frames) < 3 {
		t.Fatalf("doomed batch of %d nodes is %d frames", len(sink.staged), len(frames))
	}
	nth := map[string]int{"first": 1, "second": 2, "middle": len(frames)/2 + 1, "last": len(frames), "only": 1}[where]
	whole := 0 // records of the frames before the nth
	for _, n := range frames[:nth-1] {
		whole += n
	}
	before := s.Stats().Records
	s.SetFailpoint(mode, uint64(nth))
	if err := sink.Commit(); !errors.Is(err, seglog.ErrCrashed) {
		t.Fatalf("commit at failpoint: %v, want ErrCrashed", err)
	}
	if got := s.Stats().Records; got != before {
		t.Fatalf("crashed commit published %d records", got-before)
	}
	for _, r := range sink.staged {
		if s.Has(r.key) {
			t.Fatalf("crashed commit published %s", r.key.Short())
		}
	}
	s.Close()

	// Reopen: the frames written before the crash are whole and indexed
	// (unreachable garbage until a later batch names them), the cut, torn
	// or garbled one contributes nothing, and nothing else was lost.
	s2 := testOpen(t, dir, opts)
	if got, want := s2.Stats().Records, before+whole; got != want {
		t.Fatalf("reopened index holds %d records, want %d", got, want)
	}
	if torn := s2.Stats().TornBytes; (mode == seglog.FailCut) != (torn == 0) {
		t.Fatalf("mode %s: %d torn bytes", mode, torn)
	}
	for i, r := range sink.staged {
		got, err := getRaw(s2, r.key)
		if i >= whole {
			if !errors.Is(err, ErrNotFound) || s2.Has(r.key) {
				t.Fatalf("record %d of the hit frame or a later one was published (%v)", i, err)
			}
		} else if err != nil || !bytes.Equal(got, r.payload) {
			t.Fatalf("surviving record %d %s: %v", i, r.key.Short(), err)
		}
	}
	// The frame before the hit one keeps its windows whole: its records
	// read back above, some of them inflated behind the others.
	if where == "second" && !slices.ContainsFunc(sink.staged[:whole], func(r record) bool { return backOf(t, s2, r.key) > 0 }) {
		t.Fatal("no record of the surviving frame lies behind another in its window")
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
