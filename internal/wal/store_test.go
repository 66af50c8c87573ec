package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/lz"
	"dcsledger/internal/seglog"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
)

// testBlocks builds a deterministic linear chain of n blocks for
// journaling tests (no consensus validity needed at this layer).
func testBlocks(n int) []*types.Block {
	miner := cryptoutil.KeyFromSeed([]byte("store-test")).Address()
	parent := cryptoutil.HashBytes([]byte("genesis"))
	blocks := make([]*types.Block, 0, n)
	for i := 0; i < n; i++ {
		b := types.NewBlock(parent, uint64(i+1), int64(1000+i), miner, nil)
		blocks = append(blocks, b)
		parent = b.Hash()
	}
	return blocks
}

func openStoreT(t *testing.T, dir string, opts StoreOptions) (*DurableStore, *Recovery) {
	t.Helper()
	s, rec, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rec
}

// journaledBlocks streams rec and returns its block records in log
// order; the count must be the one the open-time scan reported.
func journaledBlocks(t *testing.T, rec *Recovery) []Journaled {
	t.Helper()
	var out []Journaled
	if err := rec.Replay(func(j Journaled) error {
		if j.Block != nil {
			out = append(out, j)
		}
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(out) != rec.Blocks {
		t.Fatalf("Replay delivered %d blocks, the open-time scan counted %d", len(out), rec.Blocks)
	}
	return out
}

func TestStoreJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	if rec.Blocks != 0 || !rec.Head.IsZero() || rec.Checkpoint != nil {
		t.Fatalf("fresh store recovery not empty: %+v", rec)
	}
	blocks := testBlocks(5)
	for _, b := range blocks {
		if err := s.LogBlock(b); err != nil {
			t.Fatalf("LogBlock: %v", err)
		}
		if err := s.LogHead(b.Hash()); err != nil {
			t.Fatalf("LogHead: %v", err)
		}
	}
	s.Close()

	_, rec2 := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	if rec2.Blocks != 5 {
		t.Fatalf("recovered %d blocks, want 5", rec2.Blocks)
	}
	for i, rb := range journaledBlocks(t, rec2) {
		if rb.Block.Hash() != blocks[i].Hash() {
			t.Fatalf("block %d hash mismatch after journal round trip", i)
		}
	}
	if rec2.Head != blocks[4].Hash() {
		t.Fatalf("recovered head %s, want %s", rec2.Head.Short(), blocks[4].Hash().Short())
	}
	if got := rec2.TipHeight(); got != 5 {
		t.Fatalf("TipHeight = %d, want 5", got)
	}
}

// TestHeadBlockRecord: blocks journaled with LogHeadBlock replay as
// LogBlock then LogHead of each hash replay — the block, then the head
// switch to it — and recover the same head, from one record a block: one
// append and, under the always policy, one fsync where those take two.
func TestHeadBlockRecord(t *testing.T) {
	blocks := testBlocks(6)
	journal := func(one bool) ([]Journaled, *Recovery, StoreStats) {
		dir := t.TempDir()
		s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
		for _, b := range blocks {
			if one {
				if err := s.LogHeadBlock(b); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := s.LogBlock(b); err != nil {
				t.Fatal(err)
			}
			if err := s.LogHead(b.Hash()); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		s.Close()
		_, rec := openStoreT(t, dir, StoreOptions{})
		var out []Journaled
		if err := rec.Replay(func(j Journaled) error {
			out = append(out, j)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out, rec, st
	}
	one, rec1, st1 := journal(true)
	two, rec2, st2 := journal(false)
	if len(one) != 2*len(blocks) || len(two) != len(one) {
		t.Fatalf("replayed %d and %d records, want %d each", len(one), len(two), 2*len(blocks))
	}
	for i := range one {
		a, b := one[i], two[i]
		if (a.Block == nil) != (b.Block == nil) || a.Block != nil && a.Block.Hash() != b.Block.Hash() || a.Head != b.Head {
			t.Fatalf("delivery %d differs: %+v, %+v", i, a, b)
		}
		if a.Seq != uint64(i/2+1) || b.Seq != uint64(i+1) {
			t.Fatalf("delivery %d: seqs %d and %d", i, a.Seq, b.Seq)
		}
	}
	last := blocks[len(blocks)-1].Hash()
	if rec1.Head != last || rec2.Head != last || rec1.Blocks != len(blocks) || rec2.Blocks != len(blocks) {
		t.Fatalf("recovered heads %s, %s, blocks %d, %d", rec1.Head.Short(), rec2.Head.Short(), rec1.Blocks, rec2.Blocks)
	}
	n := uint64(len(blocks))
	if st1.WAL.Appends != n || st1.WAL.Fsyncs != n || st2.WAL.Appends != 2*n || st2.WAL.Fsyncs != 2*n {
		t.Fatalf("appends/fsyncs %d/%d in one record a block, %d/%d in two; want %d/%d, %d/%d",
			st1.WAL.Appends, st1.WAL.Fsyncs, st2.WAL.Appends, st2.WAL.Fsyncs, n, n, 2*n, 2*n)
	}
}

// TestLogHeadBlockAllocs: journaling a block frames its record into a
// buffer the store keeps, as it compresses into one: one allocation an
// append, where a fresh frame for every record made it two.
func TestLogHeadBlockAllocs(t *testing.T) {
	s, _ := openStoreT(t, t.TempDir(), StoreOptions{Fsync: seglog.SyncNever})
	defer s.Close()
	blocks := transferBlocks(t, 64, 20)
	logBlocks(t, s, blocks) // the buffers grow, the index holds every hash
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.LogHeadBlock(blocks[i%len(blocks)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 1 {
		t.Fatalf("%.1f allocations an append, want at most 1", allocs)
	}
}

func TestStoreCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	blocks := testBlocks(3)
	for _, b := range blocks {
		if err := s.LogBlock(b); err != nil {
			t.Fatal(err)
		}
	}

	st := state.New()
	st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("alice"))), 1000)
	st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("bob"))), 7)
	root := st.Commit()
	head := blocks[2].Hash()
	if err := s.Checkpoint(blocks[2], root, st); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := s.Stats().Checkpoints; got != 1 {
		t.Fatalf("Checkpoints stat = %d, want 1", got)
	}
	wantSeq := s.Stats().WAL.LastSeq
	s.Close()

	_, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	ck := rec.Checkpoint
	if ck == nil {
		t.Fatal("checkpoint not recovered")
	}
	if ck.Head != head || ck.Height != 3 || ck.StateRoot != root || ck.Seq != wantSeq {
		t.Fatalf("checkpoint fields %+v; want head=%s height=3 root=%s seq=%d",
			ck, head.Short(), root.Short(), wantSeq)
	}
	if ck.State.Commit() != root {
		t.Fatal("recovered checkpoint state does not commit to its root")
	}
	if got := ck.State.Balance(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("alice")))); got != 1000 {
		t.Fatalf("recovered balance = %d, want 1000", got)
	}
}

func TestCheckpointGC(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	st := state.New()
	st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("a"))), 1)
	root := st.Commit()
	for i, b := range testBlocks(5) {
		if err := s.LogBlock(b); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(b, root, st); err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
	if len(files) != keepCheckpoints {
		t.Fatalf("%d checkpoint files survive, want %d", len(files), keepCheckpoints)
	}
	// The newest carries a snapshot, so the older file is not decoded.
	s.Close()
	_, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	if ck := rec.Checkpoint; ck == nil || ck.Height != 5 || ck.State == nil || ck.Older != nil {
		t.Fatalf("recovered %+v, want the height-5 snapshot and nothing behind it", ck)
	}
}

// TestCorruptCheckpointFallsBack garbles the newest checkpoint and
// verifies recovery falls back to the older one (never trusting a
// damaged file).
func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	st := state.New()
	st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("a"))), 1)
	root := st.Commit()
	blocks := testBlocks(2)
	for _, b := range blocks {
		if err := s.LogBlock(b); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(b, root, st); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
	if len(files) != 2 {
		t.Fatalf("want 2 checkpoint files, got %d", len(files))
	}
	newest := files[len(files)-1] // glob sorts; zero-padded names sort by seq
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	if rec.Checkpoint == nil {
		t.Fatal("no fallback checkpoint recovered")
	}
	if rec.Checkpoint.Head != blocks[0].Hash() || rec.Checkpoint.Height != 1 {
		t.Fatalf("fell back to %+v, want the height-1 checkpoint", rec.Checkpoint)
	}
}

// TestSkippedCheckpointsAreReported: checkpoints of the replaced
// DCSCKPT2 and DCSCKPT3 layouts and a bit-flipped current one, all
// covering records the journal holds, are neither used nor mistaken for
// no file: recovery names each, newest first, with the reason, falls back
// to the valid one behind them, and the newest file's size is what Stats
// reports.
func TestSkippedCheckpointsAreReported(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	st := state.New()
	st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("a"))), 1)
	root := st.Commit()
	blocks := testBlocks(4)
	for i, b := range blocks {
		if err := s.LogBlock(b); err != nil {
			t.Fatal(err)
		}
		if i >= 2 {
			continue // the replaced layouts' fixtures cover these
		}
		if err := s.Checkpoint(b, root, st); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seqs, err := s.ckpts.List()
	if err != nil || len(seqs) != 2 {
		t.Fatalf("checkpoint files %v, %v", seqs, err)
	}
	flipped := s.ckpts.Path(seqs[1])
	data, err := os.ReadFile(flipped)
	if err != nil {
		t.Fatal(err)
	}
	body, err := lz.Decode(nil, data[len(ckptMagic):len(data)-4], maxCheckpointLen, maxCheckpointLen)
	if err != nil {
		t.Fatal(err)
	}
	// The same checkpoint in DCSCKPT2's layout: the DCSCKPT3 body, u32
	// length-prefixed snapshot and head block behind the header,
	// uncompressed; in DCSCKPT3's, that body compressed.
	snap, blk := body[ckptHeaderLen:], blocks[1].Encode()
	v3body := append(binary.BigEndian.AppendUint32(append([]byte(nil), body[:ckptHeaderLen]...), uint32(len(snap))), snap...)
	v3body = append(binary.BigEndian.AppendUint32(v3body, uint32(len(blk))), blk...)
	v2 := append([]byte("DCSCKPT2"), v3body...)
	v2 = binary.BigEndian.AppendUint32(v2, seglog.Checksum(v3body))
	var enc lz.Encoder
	v3 := enc.Encode([]byte("DCSCKPT3"), v3body)
	v3 = binary.BigEndian.AppendUint32(v3, seglog.Checksum(v3[len("DCSCKPT3"):]))
	replaced2, replaced3 := s.ckpts.Path(seqs[1]+1), s.ckpts.Path(seqs[1]+2)
	if err := os.WriteFile(replaced2, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(replaced3, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	if last := s.Stats().WAL.LastSeq; last != seqs[1]+2 {
		t.Fatalf("the journal ends at seq %d, want %d: the fixtures must cover records it holds", last, seqs[1]+2)
	}
	if ck := rec.Checkpoint; ck == nil || ck.Head != blocks[0].Hash() {
		t.Fatalf("recovered checkpoint %+v, want the height-1 one", ck)
	}
	got := rec.SkippedCheckpoints
	if len(got) != 3 || got[0].File != replaced3 || got[1].File != replaced2 || got[2].File != flipped {
		t.Fatalf("skipped %v, want %s, %s and %s", got, replaced3, replaced2, flipped)
	}
	for i, want := range []string{ckptMagic, ckptMagic, "checksum"} {
		if !strings.Contains(got[i].Reason.Error(), want) {
			t.Errorf("%s skipped for %q, want it to say %q", got[i].File, got[i].Reason, want)
		}
	}
	if n := s.Stats().CheckpointBytes; n != len(v3) {
		t.Fatalf("CheckpointBytes = %d, want the newest file's %d", n, len(v3))
	}
}

// TestStaleCheckpointIsRemoved: a checkpoint that covers records past
// the journal's last — here the open cut a CRC-valid record it cannot
// use, below the newest checkpoint — is removed at open and reported with
// that reason; the store names only the older checkpoint's root, and the
// next checkpoint it writes is the newest file.
func TestStaleCheckpointIsRemoved(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{Fsync: seglog.SyncAlways}
	s, _ := openStoreT(t, dir, opts)
	blocks := testBlocks(4)
	roots := make([]cryptoutil.Hash, 2)
	checkpoint := func(s *DurableStore, b *types.Block, i int) {
		t.Helper()
		st := state.New()
		st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("a"))), uint64(i+1))
		if i < len(roots) {
			roots[i] = st.Commit()
		}
		if err := s.Checkpoint(b, st.Commit(), st); err != nil {
			t.Fatal(err)
		}
	}
	logBlocks(t, s, blocks[:2])
	checkpoint(s, blocks[1], 0) // covers seq 2
	cut, _, err := appendRec(s, RecHead, []byte("not a hash"))
	if err != nil {
		t.Fatal(err)
	}
	logBlocks(t, s, blocks[2:3])
	checkpoint(s, blocks[2], 1) // covers seq 4, past the cut
	stale := s.ckpts.Path(cut + 1)
	s.Close()

	s, rec := openStoreT(t, dir, opts)
	if last := s.Stats().WAL.LastSeq; last != cut-1 {
		t.Fatalf("the journal ends at seq %d, want %d: the open cuts the unusable record", last, cut-1)
	}
	got := rec.SkippedCheckpoints
	if len(got) != 1 || got[0].File != stale || !strings.Contains(got[0].Reason.Error(), "past the journal's last record") {
		t.Fatalf("skipped %v, want %s removed as past the journal's last record", got, stale)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("the stale checkpoint is still on disk: %v", err)
	}
	if ck := rec.Checkpoint; ck == nil || ck.Head != blocks[1].Hash() || ck.StateRoot != roots[0] {
		t.Fatalf("recovered checkpoint %+v, want the one at height 2", ck)
	}
	if got := s.CheckpointRoots(); len(got) != 1 || got[0] != roots[0] {
		t.Fatalf("CheckpointRoots = %v, want only %s", got, roots[0].Short())
	}
	// The appends reuse the stale file's seqs; the checkpoint behind them
	// is the newest file, and retention keeps it.
	logBlocks(t, s, blocks[2:])
	checkpoint(s, blocks[3], 2)
	if seqs, err := s.ckpts.List(); err != nil || len(seqs) != 2 || seqs[1] != s.Stats().WAL.LastSeq {
		t.Fatalf("checkpoint files %v (%v), want the new one at seq %d kept", seqs, err, s.Stats().WAL.LastSeq)
	}
	s.Close()
	_, rec = openStoreT(t, dir, opts)
	if ck := rec.Checkpoint; ck == nil || ck.Head != blocks[3].Hash() || len(rec.SkippedCheckpoints) != 0 {
		t.Fatalf("reopen: checkpoint %+v, skipped %v; want the height-4 one and none skipped", ck, rec.SkippedCheckpoints)
	}
}

// TestStaleCheckpointThatCannotGoFailsOpen: a checkpoint past the
// journal's last record that cannot be removed would outrank the
// checkpoints the appends write on its seqs, so the open fails and names
// it. A non-empty directory under its name is one os.Remove refuses,
// whatever the caller's permissions.
func TestStaleCheckpointThatCannotGoFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{})
	logBlocks(t, s, testBlocks(2))
	stale := s.ckpts.Path(99)
	s.Close()
	if err := os.MkdirAll(filepath.Join(stale, "held"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenStore(dir, StoreOptions{}); err == nil || !strings.Contains(err.Error(), stale) {
		t.Fatalf("OpenStore = %v, want a failure naming %s", err, stale)
	}
}

func TestMaybeCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways, CheckpointEvery: 4})
	st := state.New()
	st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("a"))), 1)
	root := st.Commit()
	blocks := testBlocks(9)
	wantAt := map[uint64]bool{4: true, 8: true}
	for h := uint64(1); h <= 9; h++ {
		wrote, err := s.MaybeCheckpoint(blocks[h-1], root, st)
		if err != nil {
			t.Fatalf("MaybeCheckpoint(%d): %v", h, err)
		}
		if wrote != wantAt[h] {
			t.Fatalf("MaybeCheckpoint(%d) wrote=%v, want %v", h, wrote, wantAt[h])
		}
	}
	if got := s.Stats().Checkpoints; got != 2 {
		t.Fatalf("checkpoints written = %d, want 2", got)
	}
}

// TestStoreFailureLatches verifies the store refuses all writes after
// the first failure, so the in-memory chain cannot silently outrun a
// broken log.
func TestStoreFailureLatches(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	blocks := testBlocks(3)
	if err := s.LogBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	s.SetFailpoint(seglog.FailTorn, 1)
	if err := s.LogBlock(blocks[1]); err == nil {
		t.Fatal("LogBlock at failpoint succeeded")
	}
	if s.Failed() == nil {
		t.Fatal("Failed() = nil after write failure")
	}
	if err := s.LogBlock(blocks[2]); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("LogBlock after failure: err = %v, want ErrStoreFailed", err)
	}
	if err := s.LogHead(blocks[2].Hash()); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("LogHead after failure: err = %v, want ErrStoreFailed", err)
	}
	st := state.New()
	if err := s.Checkpoint(blocks[0], st.Commit(), st); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("Checkpoint after failure: err = %v, want ErrStoreFailed", err)
	}
	s.Close()

	// The journal survives as the pre-crash prefix.
	_, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	if got := journaledBlocks(t, rec); len(got) != 1 || got[0].Block.Hash() != blocks[0].Hash() {
		t.Fatalf("recovered %d blocks, want the 1 pre-crash block", len(got))
	}
}

// reopenCut closes s and reopens dir, whose open must cut the journal at
// the record of seq, whose frame lies at at, and everything behind it:
// the bytes cut are those of at's segment from at on and of every later
// segment, and appends resume at seq.
func reopenCut(t *testing.T, s *DurableStore, dir string, opts StoreOptions, seq uint64, at Loc) (*DurableStore, *Recovery) {
	t.Helper()
	want := -at.Off
	for _, seg := range s.log.Segments() {
		if seg >= uint64(at.Seg) {
			fi, err := os.Stat(filepath.Join(dir, "wal", format.SegmentName(seg)))
			if err != nil {
				t.Fatal(err)
			}
			want += fi.Size()
		}
	}
	s.Close()
	s, rec := openStoreT(t, dir, opts)
	if st := s.Stats().WAL; st.TornTruncated != uint64(want) || st.LastSeq != seq-1 {
		t.Fatalf("the open cut %d bytes and kept the records to seq %d; want %d bytes cut, the records to seq %d kept", st.TornTruncated, st.LastSeq, want, seq-1)
	}
	return s, rec
}

// refusedReplay replays rec, which must refuse block record seq — an
// error wrapping seglog.ErrDamaged that names it — and leave its store s
// latched failed, and returns the blocks delivered before the refusal.
func refusedReplay(t *testing.T, s *DurableStore, rec *Recovery, seq uint64) []Journaled {
	t.Helper()
	var out []Journaled
	err := rec.Replay(func(j Journaled) error {
		if j.Block != nil {
			out = append(out, j)
		}
		return nil
	})
	if !errors.Is(err, seglog.ErrDamaged) || !strings.Contains(err.Error(), fmt.Sprintf("block record %d:", seq)) {
		t.Fatalf("Replay = %v; want damage naming block record %d", err, seq)
	}
	if err := s.LogHeadBlock(testBlocks(1)[0]); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("LogHeadBlock after a refused replay: err = %v, want ErrStoreFailed", err)
	}
	return out
}

// TestUndecodablePayloadStopsCollection writes a CRC-valid RecBlock
// whose payload is not a decodable block: the open-time scan cuts the
// journal there, that record and the block behind it, as at a torn
// tail, and recovers the prefix before it.
func TestUndecodablePayloadStopsCollection(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{Fsync: seglog.SyncAlways}
	s, _ := openStoreT(t, dir, opts)
	blocks := testBlocks(3)
	if err := s.LogBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	seq, at, err := appendRec(s, RecBlock, []byte("not a block"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LogBlock(blocks[1]); err != nil {
		t.Fatal(err)
	}
	s, rec := reopenCut(t, s, dir, opts, seq, at)
	if got := journaledBlocks(t, rec); len(got) != 1 || got[0].Block.Hash() != blocks[0].Hash() {
		t.Fatalf("recovered %d blocks, want 1 (prefix before bad payload)", len(got))
	}
	if s.HasBlock(blocks[1].Hash()) {
		t.Fatal("the block behind the cut record is still indexed")
	}
}

// TestAppendsResumeAtACutRecord: a block journaled after the open cut an
// unusable record — one that is not a block, or a chained record out of
// its window — takes that record's seq, and the next open recovers it:
// it is indexed, reads back, and Replay delivers it last. Before the cut,
// such a record stayed on disk and every block journaled behind it was
// dropped again by the next open.
func TestAppendsResumeAtACutRecord(t *testing.T) {
	blocks := transferBlocks(t, 3, 4)
	for name, payload := range map[string][]byte{
		"not a block":       []byte("not a block"),
		"out of its window": chained(blocks[0], blocks[1], 3, true), // a back that does not follow
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := StoreOptions{Fsync: seglog.SyncAlways}
			s, _ := openStoreT(t, dir, opts)
			if err := s.LogHeadBlock(blocks[0]); err != nil {
				t.Fatal(err)
			}
			seq, at, err := appendRec(s, RecBlock, payload)
			if err != nil {
				t.Fatal(err)
			}
			s, rec := reopenCut(t, s, dir, opts, seq, at)
			if rec.Blocks != 1 || rec.Head != blocks[0].Hash() {
				t.Fatalf("the open kept %d blocks, head %s; want the 1 before the cut", rec.Blocks, rec.Head.Short())
			}
			journaledBlocks(t, rec)
			b := blocks[2]
			if err := s.LogHeadBlock(b); err != nil {
				t.Fatal(err)
			}
			if last := s.Stats().WAL.LastSeq; last != seq {
				t.Fatalf("the block was journaled at seq %d, want the cut record's %d", last, seq)
			}
			s.Close()

			s, rec = openStoreT(t, dir, opts)
			if st := s.Stats().WAL; st.TornTruncated != 0 || rec.Blocks != 2 || rec.Head != b.Hash() || !s.HasBlock(b.Hash()) {
				t.Fatalf("next open: %d bytes cut, %d blocks, head %s, block indexed %v; want 0, 2, %s, true",
					st.TornTruncated, rec.Blocks, rec.Head.Short(), s.HasBlock(b.Hash()), b.Hash().Short())
			}
			if got := journaledBlocks(t, rec); got[len(got)-1].Block.Hash() != b.Hash() {
				t.Fatal("Replay does not deliver the block journaled after the cut last")
			}
			readsBack(t, s, []*types.Block{blocks[0], b})
		})
	}
}

// TestUndecodableBodyStopsReplay: a record whose block header decodes
// but whose transactions do not passes the open-time scan, which reads
// headers only; Replay refuses it — an error wrapping seglog.ErrDamaged
// that names its seq, every time — after delivering the block before it,
// and latches the store failed, so nothing is journaled behind it.
func TestUndecodableBodyStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	blocks := testBlocks(3)
	if err := s.LogBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	// A trailing byte: the header is fine, the block is not.
	bad := blocks[1].AppendSigs(new(lz.Encoder).Encode([]byte{0}, append(blocks[1].AppendStored(nil), 0xff)))
	seq, _, err := appendRec(s, RecBlock, bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LogBlock(blocks[2]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	if cut := s.Stats().WAL.TornTruncated; cut != 0 || rec.Blocks != 3 {
		t.Fatalf("open-time scan: %d bytes cut, Blocks %d; want 0, 3 (headers all decode)", cut, rec.Blocks)
	}
	for pass := 0; pass < 2; pass++ {
		if got := refusedReplay(t, s, rec, seq); len(got) != 1 || got[0].Block.Hash() != blocks[0].Hash() {
			t.Fatalf("pass %d: replayed %d blocks, want the 1 before the bad one", pass, len(got))
		}
	}
}

// TestUninflatableRecordStopsReplay: the same for a compressed record
// whose header prefix inflates and whose body does not — a bad element or
// input past the declared length, behind a valid CRC. The open-time scan
// inflates headers only; Replay refuses the record.
func TestUninflatableRecordStopsReplay(t *testing.T) {
	blocks := transferBlocks(t, 3, 4)
	for _, name := range []string{"bad element", "wrong length"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
			if err := s.LogBlock(blocks[0]); err != nil {
				t.Fatal(err)
			}
			seq, _, err := appendRec(s, RecBlock, uninflatable(t, blocks[1])[name])
			if err != nil {
				t.Fatal(err)
			}
			if err := s.LogBlock(blocks[2]); err != nil {
				t.Fatal(err)
			}
			s.Close()

			s, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
			if cut := s.Stats().WAL.TornTruncated; cut != 0 || rec.Blocks != 3 {
				t.Fatalf("open-time scan: %d bytes cut, Blocks %d; want 0, 3 (header prefixes all inflate)", cut, rec.Blocks)
			}
			for pass := 0; pass < 2; pass++ {
				if got := refusedReplay(t, s, rec, seq); len(got) != 1 || got[0].Block.Hash() != blocks[0].Hash() {
					t.Fatalf("pass %d: replayed %d blocks, want the 1 before the bad one", pass, len(got))
				}
			}
		})
	}
}

// TestReadBlock: every journaled block reads back byte-identical — from
// sealed segments and from the active one, in the session that wrote it
// and after a reopen rebuilt the index — and a record damaged after it
// was indexed is an error, never a block, for it and for the records of
// its window after it.
func TestReadBlock(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{Fsync: seglog.SyncNever, SegmentSize: 512}
	s, _ := openStoreT(t, dir, opts)
	blocks := testBlocks(12)
	check := func(s *DurableStore, blocks []*types.Block) {
		t.Helper()
		for _, b := range blocks {
			got, err := s.ReadBlock(b.Hash())
			if err != nil {
				t.Fatalf("ReadBlock h=%d: %v", b.Header.Height, err)
			}
			if !bytes.Equal(got.Encode(), b.Encode()) {
				t.Fatalf("ReadBlock h=%d returned a different block", b.Header.Height)
			}
		}
	}
	for i, b := range blocks {
		if s.HasBlock(b.Hash()) {
			t.Fatalf("HasBlock before LogBlock h=%d", b.Header.Height)
		}
		if err := s.LogBlock(b); err != nil {
			t.Fatal(err)
		}
		if err := s.LogHead(b.Hash()); err != nil {
			t.Fatal(err)
		}
		check(s, blocks[:i+1]) // the newest is in the active segment, unsynced
	}
	if s.Stats().WAL.Rotations == 0 {
		t.Fatal("no rotation: sealed segments were not exercised")
	}
	if _, err := s.ReadBlock(cryptoutil.HashBytes([]byte("never journaled"))); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("ReadBlock of an unknown hash: err = %v, want ErrNoBlock", err)
	}
	s.Close()
	if _, err := s.ReadBlock(blocks[0].Hash()); !errors.Is(err, seglog.ErrClosed) {
		t.Fatalf("ReadBlock on a closed store: err = %v, want seglog.ErrClosed", err)
	}

	s2, rec := openStoreT(t, dir, opts)
	if rec.Blocks != len(blocks) {
		t.Fatalf("reopen counted %d blocks, want %d", rec.Blocks, len(blocks))
	}
	check(s2, blocks)

	// The records of blocks[0]'s window: it, and those after it whose back
	// is not 0.
	window := 1
	for window < len(blocks) && backOf(t, s2, blocks[window].Hash()) != 0 {
		window++
	}
	// Flip a payload byte of the log's first record, blocks[0], underneath
	// the open store.
	seg := filepath.Join(dir, "wal", format.SegmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[format.HeaderLen()+seglog.FrameHeaderLen+recordHeaderLen+4] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if window < 2 || window > windowRecords {
		t.Fatalf("the first window holds %d records", window)
	}
	for i, b := range blocks {
		_, err := s2.ReadBlock(b.Hash())
		if damaged := i < window; damaged != (err != nil) || damaged && !errors.Is(err, seglog.ErrDamaged) {
			t.Fatalf("ReadBlock h=%d after garbling the first record of a %d-record window: err = %v", b.Header.Height, window, err)
		}
	}
}
