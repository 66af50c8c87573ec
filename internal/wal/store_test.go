package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
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
	wantSeq := s.WAL().LastSeq()
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
	if ck.Block == nil || ck.Block.Hash() != head {
		t.Fatal("recovered checkpoint does not embed its head block")
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
	s.WAL().SetFailpoint(seglog.FailTorn, 1)
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

// TestUndecodablePayloadStopsCollection writes a CRC-valid RecBlock
// whose payload is not a decodable block: recovery must stop collecting
// there to preserve prefix semantics.
func TestUndecodablePayloadStopsCollection(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	blocks := testBlocks(3)
	if err := s.LogBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WAL().Append(RecBlock, []byte("not a block")); err != nil {
		t.Fatal(err)
	}
	if err := s.LogBlock(blocks[1]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	_, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	if got := journaledBlocks(t, rec); len(got) != 1 {
		t.Fatalf("recovered %d blocks, want 1 (prefix before bad payload)", len(got))
	}
	if rec.Truncated != 2 {
		t.Fatalf("Truncated = %d, want 2 (bad record + dropped successor)", rec.Truncated)
	}
}

// TestUndecodableBodyStopsReplay: a record whose block header decodes
// but whose transactions do not passes the open-time scan, which reads
// headers only; Replay stops in front of it, with the same prefix
// semantics, and says so in Truncated.
func TestUndecodableBodyStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	blocks := testBlocks(3)
	if err := s.LogBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	// A trailing byte: the header is fine, the block is not.
	bad := new(lz.Encoder).Encode([]byte{0}, append(blocks[1].Encode(), 0xff))
	if _, err := s.WAL().Append(RecBlock, bad); err != nil {
		t.Fatal(err)
	}
	if err := s.LogBlock(blocks[2]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	_, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
	if rec.Truncated != 0 || rec.Blocks != 3 {
		t.Fatalf("open-time scan: Truncated %d, Blocks %d; want 0, 3 (headers all decode)", rec.Truncated, rec.Blocks)
	}
	for pass := 0; pass < 2; pass++ {
		var got []Journaled
		if err := rec.Replay(func(j Journaled) error { got = append(got, j); return nil }); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if len(got) != 1 || got[0].Block.Hash() != blocks[0].Hash() {
			t.Fatalf("pass %d: replayed %d records, want the 1 block before the bad one", pass, len(got))
		}
		if rec.Truncated != 2 {
			t.Fatalf("pass %d: Truncated = %d, want 2 (bad record + dropped successor)", pass, rec.Truncated)
		}
	}
}

// TestUninflatableRecordStopsReplay: the same for a compressed record
// whose header prefix inflates and whose body does not — a bad element or
// input past the declared length, behind a valid CRC. The open-time scan
// inflates headers only; Replay ends the journal in front of the record.
func TestUninflatableRecordStopsReplay(t *testing.T) {
	blocks := transferBlocks(t, 3, 4)
	for _, name := range []string{"bad element", "wrong length"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
			if err := s.LogBlock(blocks[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WAL().Append(RecBlock, uninflatable(t, blocks[1])[name]); err != nil {
				t.Fatal(err)
			}
			if err := s.LogBlock(blocks[2]); err != nil {
				t.Fatal(err)
			}
			s.Close()

			_, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
			if rec.Truncated != 0 || rec.Blocks != 3 {
				t.Fatalf("open-time scan: Truncated %d, Blocks %d; want 0, 3 (header prefixes all inflate)", rec.Truncated, rec.Blocks)
			}
			for pass := 0; pass < 2; pass++ {
				var got []Journaled
				if err := rec.Replay(func(j Journaled) error { got = append(got, j); return nil }); err != nil {
					t.Fatalf("Replay: %v", err)
				}
				if len(got) != 1 || got[0].Block.Hash() != blocks[0].Hash() {
					t.Fatalf("pass %d: replayed %d records, want the 1 block before the bad one", pass, len(got))
				}
				if rec.Truncated != 2 {
					t.Fatalf("pass %d: Truncated = %d, want 2 (bad record + dropped successor)", pass, rec.Truncated)
				}
			}
		})
	}
}

// TestPruneFloorProtectsReplaySuffix pins the checkpoint-seq prune
// floor: a DurableStore WAL with no checkpoint refuses to prune
// anything, and once a checkpoint exists, an arbitrarily aggressive
// PruneBefore drops only segments the checkpoint covers — every record
// above the checkpoint seq survives and replays after reopen.
func TestPruneFloorProtectsReplaySuffix(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{Fsync: seglog.SyncAlways, SegmentSize: 256}
	s, _ := openStoreT(t, dir, opts)
	blocks := testBlocks(10)
	for _, b := range blocks[:5] {
		if err := s.LogBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	// No checkpoint: the floor is zero and nothing may be pruned,
	// however large the request.
	if removed, err := s.PruneBefore(s.WAL().LastSeq()); err != nil || removed != 0 {
		t.Fatalf("prune with no checkpoint removed %d (err %v), want 0", removed, err)
	}

	st := state.New()
	st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("a"))), 1)
	if err := s.Checkpoint(blocks[4], st.Commit(), st); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ckptSeq := s.WAL().LastSeq()
	if floor, armed := s.WAL().PruneFloor(); !armed || floor != ckptSeq {
		t.Fatalf("floor = %d (armed %v), want %d", floor, armed, ckptSeq)
	}
	for _, b := range blocks[5:] {
		if err := s.LogBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := s.PruneBefore(s.WAL().LastSeq())
	if err != nil {
		t.Fatalf("PruneBefore: %v", err)
	}
	if removed == 0 {
		t.Fatal("clamped prune removed no pre-checkpoint segments")
	}
	// The journal is the block store: what was pruned cannot be read
	// back and is no longer claimed, the replay suffix still can.
	if _, err := s.ReadBlock(blocks[0].Hash()); !errors.Is(err, ErrNoBlock) || s.HasBlock(blocks[0].Hash()) {
		t.Fatalf("ReadBlock of a pruned block: err = %v, HasBlock %v", err, s.HasBlock(blocks[0].Hash()))
	}
	for _, b := range blocks[5:] {
		if got, err := s.ReadBlock(b.Hash()); err != nil || got.Hash() != b.Hash() {
			t.Fatalf("ReadBlock of replay-suffix block h=%d: %v", b.Header.Height, err)
		}
	}
	s.Close()

	// The pruned store still recovers the checkpoint plus the complete
	// replay suffix (every block journaled after the checkpoint).
	_, rec := openStoreT(t, dir, opts)
	if rec.Checkpoint == nil || rec.Checkpoint.Head != blocks[4].Hash() {
		t.Fatalf("recovered checkpoint %+v, want head %s", rec.Checkpoint, blocks[4].Hash().Short())
	}
	var suffix []*types.Block
	for _, rb := range journaledBlocks(t, rec) {
		if rb.Seq > rec.Checkpoint.Seq {
			suffix = append(suffix, rb.Block)
		}
	}
	if len(suffix) != 5 {
		t.Fatalf("replay suffix has %d blocks, want 5", len(suffix))
	}
	for i, b := range suffix {
		if b.Hash() != blocks[5+i].Hash() {
			t.Fatalf("suffix block %d mismatch", i)
		}
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
	if window < 2 || window > lz.WindowRecords {
		t.Fatalf("the first window holds %d records", window)
	}
	for i, b := range blocks {
		_, err := s2.ReadBlock(b.Hash())
		if damaged := i < window; damaged != (err != nil) || damaged && !errors.Is(err, seglog.ErrDamaged) {
			t.Fatalf("ReadBlock h=%d after garbling the first record of a %d-record window: err = %v", b.Header.Height, window, err)
		}
	}
}
