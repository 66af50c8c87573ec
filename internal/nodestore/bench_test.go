package nodestore

import (
	"fmt"
	"testing"

	"dcsledger/internal/mpt"
)

// BenchmarkReadMiss is a node read from disk: the nodes of a 3,000-key
// trie in turn, with the cache off, so that every read is a miss that
// reads its record, the records of its window before it, and inflates
// them.
func BenchmarkReadMiss(b *testing.B) {
	s, err := Open(b.TempDir(), Options{CacheBytes: -1, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tr := mpt.New()
	for i := range 3000 {
		tr = tr.Set([]byte(fmt.Sprintf("account-%05d", i)), []byte(fmt.Sprintf("balance %d", i*7)))
	}
	sink := &recordingSink{Batch: s.NewBatch(1)}
	if _, err := tr.Commit(sink); err != nil || sink.Commit() != nil {
		b.Fatal("commit failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.read(sink.staged[i%len(sink.staged)].key); err != nil {
			b.Fatal(err)
		}
	}
}
