package wal

import (
	"math/rand"
	"testing"

	"dcsledger/internal/seglog"
)

// BenchmarkReadBlock is a block body read back from the journal: its
// record, then the block records of its window before it in one read,
// each inflated in turn, then the block decoded. Blocks of 20 transfers
// (the disk-state workload's) and of 80 (transfer-heavy's), journaled as
// a node journals them, are read in order, in a seeded random order, and
// over and over the worst case, the last record of a full window.
func BenchmarkReadBlock(b *testing.B) {
	for _, c := range []struct {
		name              string
		nBlocks, perBlock int
	}{
		{"20 transfers", 256, 20},
		{"80 transfers", 64, 80},
	} {
		s, _, err := OpenStore(b.TempDir(), StoreOptions{Fsync: seglog.SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		blocks := transferBlocks(b, c.nBlocks, c.perBlock)
		logBlocks(b, s, blocks)
		last := 1 // the last record of the first window
		for backOf(b, s, blocks[last+1].Hash()) != 0 {
			last++
		}
		perm := rand.New(rand.NewSource(1)).Perm(len(blocks))
		for _, order := range []struct {
			name string
			at   func(i int) int
		}{
			{"in order", func(i int) int { return i % len(blocks) }},
			{"random", func(i int) int { return perm[i%len(perm)] }},
			{"last of a full window", func(int) int { return last }},
		} {
			b.Run(c.name+"/"+order.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.ReadBlock(blocks[order.at(i)].Hash()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		s.Close()
	}
}

// BenchmarkLogBlock is what a node pays per block under each fsync
// policy: the block and the head switch to it, journaled in one record,
// its storage form compressed against the block records of its window
// before it, its signatures behind it; the same 64 blocks of 20 transfers
// over and over. fsyncs/op is what the policy syncs a block.
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
				if err := s.LogHeadBlock(blocks[i%len(blocks)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.Stats().WAL.Fsyncs)/float64(b.N), "fsyncs/op")
		})
	}
}
