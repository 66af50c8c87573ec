package wal

import (
	"os"
	"path/filepath"
	"testing"

	"dcsledger/internal/seglog"
)

// TestReadErrorAbortsOpen: a segment the disk will not read is not a
// damaged segment. Here segment 2 is replaced by a directory of the
// same name, so read(2) fails with EISDIR; Open must fail and leave
// every file as it found it. (Treating the failed read as a bad header
// used to delete this segment and every later one.)
func TestReadErrorAbortsOpen(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Fsync: seglog.SyncNever, SegmentSize: 128})
	appendN(t, w, 40)
	if w.Stats().Segments < 3 {
		t.Fatalf("need >= 3 segments, got %d", w.Stats().Segments)
	}
	w.Close()
	unreadable := filepath.Join(dir, format.SegmentName(2))
	if err := os.Remove(unreadable); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(unreadable, 0o755); err != nil {
		t.Fatal(err)
	}
	before := hashTree(t, dir)

	if w2, err := Open(dir, Options{SegmentSize: 128}); err == nil {
		w2.Close()
		t.Fatal("Open succeeded over an unreadable segment")
	}
	if st, err := os.Stat(unreadable); err != nil || !st.IsDir() {
		t.Fatalf("Open removed the unreadable segment: %v", err)
	}
	after := hashTree(t, dir)
	if len(after) != len(before) {
		t.Fatalf("Open left %d files of %d", len(after), len(before))
	}
	for name, sum := range before {
		if after[name] != sum {
			t.Fatalf("Open modified %s", name)
		}
	}
}
