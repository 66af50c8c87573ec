package wal

import (
	"testing"

	"dcsledger/internal/seglog"
)

// BenchmarkReadBlock is a block body read back from the journal: 64
// blocks of 20 transfers in turn, each record inflated behind the block
// records of its window before it, then decoded.
func BenchmarkReadBlock(b *testing.B) {
	s, _, err := OpenStore(b.TempDir(), StoreOptions{Fsync: seglog.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	blocks := transferBlocks(b, 64, 20)
	for _, blk := range blocks {
		if err := s.LogBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadBlock(blocks[i%len(blocks)].Hash()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogBlock is a block journaled under each fsync policy, the
// cost a node pays per connected block: the same 64 blocks of 20
// transfers over and over, each storage form compressed against the
// block records of its window before it, its signatures behind it.
func BenchmarkLogBlock(b *testing.B) {
	blocks := transferBlocks(b, 64, 20)
	for _, pol := range []seglog.SyncPolicy{seglog.SyncAlways, seglog.SyncInterval, seglog.SyncNever} {
		b.Run(pol.String(), func(b *testing.B) {
			s, _, err := OpenStore(b.TempDir(), StoreOptions{Fsync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.LogBlock(blocks[i%len(blocks)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
