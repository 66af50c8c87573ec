package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/lz"
	"dcsledger/internal/seglog"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
)

// backOf reads block h's record and returns its back.
func backOf(t testing.TB, s *DurableStore, h cryptoutil.Hash) int {
	t.Helper()
	s.mu.Lock()
	at, ok := s.blocks[h]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("block %s is not indexed", h.Short())
	}
	back, _, _, err := blockPayload(recordAt(t, s, at))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// logBlocks journals blocks as a node does: each the new head, in one
// record.
func logBlocks(t testing.TB, s *DurableStore, blocks []*types.Block) {
	t.Helper()
	for _, b := range blocks {
		if err := s.LogHeadBlock(b); err != nil {
			t.Fatal(err)
		}
	}
}

// readsBack fails unless every block reads back byte-identical.
func readsBack(t *testing.T, s *DurableStore, blocks []*types.Block) {
	t.Helper()
	for _, b := range blocks {
		got, err := s.ReadBlock(b.Hash())
		if err != nil || !bytes.Equal(got.Encode(), b.Encode()) {
			t.Fatalf("ReadBlock h=%d: %v", b.Header.Height, err)
		}
	}
}

// wantBacks is the rule of the journal's window, spelled out: the back
// of each of blocks journaled in turn into one segment of a fresh store.
// A window holds at most windowRecords records and, past its first, at
// most windowCap bytes of storage forms.
func wantBacks(blocks []*types.Block) []int {
	backs := make([]int, len(blocks))
	n, held := 0, 0 // the window's records and their storage forms' bytes
	for i, b := range blocks {
		size := len(b.AppendStored(nil))
		if n == 0 || n == windowRecords || held+size > windowCap {
			n, held = 0, 0
		}
		backs[i] = n
		n, held = n+1, held+size
	}
	return backs
}

// TestWindowRestarts: in one segment the window restarts at windowRecords
// block records, or before their storage forms would pass windowCap
// bytes, and at the first record after a reopen, which appends into the
// same segment; every block reads back, in the session that wrote it and
// after the next reopen, and replays. Blocks of one transfer fill a
// window by records, long before its bytes; blocks of 80 by bytes, at
// about 26 records; blocks of 20, the disk-state workload's, at about 100.
func TestWindowRestarts(t *testing.T) {
	for _, c := range []struct {
		name             string
		nBlocks, perTxs  int
		reopenAt, window int // the block the reopen restarts at; the first restart before it
	}{
		{"1 transfer a block", 300, 1, 280, windowRecords},
		{"20 transfers a block", 240, 20, 220, 0},
		{"80 transfers a block", 60, 80, 50, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := StoreOptions{Fsync: seglog.SyncNever}
			blocks := transferBlocks(t, c.nBlocks, c.perTxs)
			want := append(wantBacks(blocks[:c.reopenAt]), wantBacks(blocks[c.reopenAt:])...)
			first := slices.Index(want[1:], 0) + 1 // where the first window ends
			if c.window > 0 && first != c.window || c.window == 0 && (first < 2 || first >= windowRecords) {
				t.Fatalf("the first window holds %d records: the case is not exercised", first)
			}
			s, _ := openStoreT(t, dir, opts)
			logBlocks(t, s, blocks[:c.reopenAt])
			readsBack(t, s, blocks[:c.reopenAt])
			s.Close()

			s, rec := openStoreT(t, dir, opts)
			if cut := s.Stats().WAL.TornTruncated; rec.Blocks != c.reopenAt || cut != 0 || rec.Head != blocks[c.reopenAt-1].Hash() {
				t.Fatalf("reopen: %d blocks, %d bytes cut, head %s", rec.Blocks, cut, rec.Head.Short())
			}
			logBlocks(t, s, blocks[c.reopenAt:])
			if segs := s.Stats().WAL.Segments; segs != 1 {
				t.Fatalf("%d segments, want the one", segs)
			}
			for i, b := range blocks {
				if got := backOf(t, s, b.Hash()); got != want[i] {
					t.Fatalf("block %d: back %d, want %d", i, got, want[i])
				}
			}
			readsBack(t, s, blocks)
			s.Close()

			s, rec = openStoreT(t, dir, opts)
			for i, j := range journaledBlocks(t, rec) {
				if j.Block.Hash() != blocks[i].Hash() {
					t.Fatalf("replayed block %d is not the one journaled", i)
				}
			}
			readsBack(t, s, blocks)
		})
	}
}

// TestReadBlockWhileLogging: blocks read back by hash, chained records
// among them, while the same store journals more, checkpoints and rotates
// segments, and a scraper takes its stats. A read returns the block asked
// for, never another block or an error.
func TestReadBlockWhileLogging(t *testing.T) {
	s, _ := openStoreT(t, t.TempDir(), StoreOptions{Fsync: seglog.SyncNever, SegmentSize: 16 << 10})
	blocks := transferBlocks(t, 48, 8)
	logBlocks(t, s, blocks[:16])
	var logged atomic.Int64 // blocks journaled so far
	logged.Store(16)
	done := make(chan struct{})
	errs := make(chan error, 3)
	for r := 0; r < 2; r++ {
		go func() {
			for i := 0; ; i++ {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				b := blocks[i%int(logged.Load())]
				got, err := s.ReadBlock(b.Hash())
				if err == nil && got.Hash() != b.Hash() {
					errs <- fmt.Errorf("ReadBlock h=%d returned block h=%d", b.Header.Height, got.Header.Height)
					return
				}
				if err != nil {
					errs <- fmt.Errorf("ReadBlock h=%d: %v", b.Header.Height, err)
					return
				}
			}
		}()
	}
	go func() {
		var last uint64
		for {
			select {
			case <-done:
				errs <- nil
				return
			default:
			}
			st := s.Stats().WAL
			if st.LastSeq < last || st.Segments < 1 {
				errs <- fmt.Errorf("stats went back: last seq %d after %d, %d segments", st.LastSeq, last, st.Segments)
				return
			}
			last = st.LastSeq
		}
	}()
	for _, b := range blocks[16:40] {
		logBlocks(t, s, []*types.Block{b})
		logged.Add(1)
	}
	st := state.New()
	st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("a"))), 1)
	if err := s.Checkpoint(blocks[39], st.Commit(), st); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks[40:] {
		logBlocks(t, s, []*types.Block{b})
		logged.Add(1)
	}
	close(done)
	for r := 0; r < 3; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().WAL.Rotations == 0 {
		t.Fatal("no rotation while reading")
	}
	readsBack(t, s, blocks)
}

// TestWindowNeverCrossesSegments: every segment's first block record
// restarts the window, so no record reads across a segment boundary, and
// every block reads back, before and after a reopen.
func TestWindowNeverCrossesSegments(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{Fsync: seglog.SyncNever, SegmentSize: 16 << 10}
	blocks := transferBlocks(t, 40, 20)
	s, _ := openStoreT(t, dir, opts)
	logBlocks(t, s, blocks)

	chained := 0
	perSeg := map[uint32]int{} // block records so far in each segment
	if _, _, err := s.scan(s.log.Segments(), func(r Record, at Loc) error {
		if !isBlock(r.Type) {
			return nil
		}
		i := perSeg[at.Seg]
		perSeg[at.Seg]++
		back, _, _, _ := blockPayload(r)
		if i == 0 && back != 0 || back > i {
			t.Fatalf("segment %d, block record %d: back %d reaches out of the segment", at.Seg, i, back)
		}
		if back > 0 {
			chained++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(perSeg) < 4 || chained == 0 {
		t.Fatalf("%d segments, %d chained records: the case is not exercised", len(perSeg), chained)
	}

	readsBack(t, s, blocks)
	s.Close()

	s, rec := openStoreT(t, dir, opts)
	if cut := s.Stats().WAL.TornTruncated; rec.Blocks != len(blocks) || cut != 0 {
		t.Fatalf("reopen: %d blocks, %d bytes cut; want %d, 0", rec.Blocks, cut, len(blocks))
	}
	readsBack(t, s, blocks)
	journaledBlocks(t, rec)
}

// TestDamageInsideWindow: a damaged record in the middle of a window —
// its CRC failing, or CRC-valid and not inflating — makes it and the
// later records of its window unreadable, each an ErrDamaged naming its
// block, never a block; the records before it and those from the next
// restart on read as before. Recovery: a failed CRC cuts the log there;
// a record whose header inflates and whose body does not passes the
// open-time scan, and Replay refuses it, after the blocks before it.
func TestDamageInsideWindow(t *testing.T) {
	const bad = 5 // of the first of two windows
	blocks := transferBlocks(t, 40, 80)
	end := slices.Index(wantBacks(blocks)[1:], 0) + 1 // where bad's window ends
	if end <= bad+1 || end == len(blocks) {
		t.Fatalf("the first window holds %d of %d records: the case is not exercised", end, len(blocks))
	}
	for _, crcValid := range []bool{false, true} {
		name := map[bool]string{false: "crc fails", true: "does not inflate"}[crcValid]
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := StoreOptions{Fsync: seglog.SyncNever}
			s, _ := openStoreT(t, dir, opts)
			logBlocks(t, s, blocks)
			at := s.blocks[blocks[bad].Hash()]
			r := recordAt(t, s, at)
			back, body, _, _ := blockPayload(r)
			if back != bad {
				t.Fatalf("back %d, want %d", back, bad)
			}
			enc, _, _ := lz.Cut(body, MaxRecordLen)

			path := filepath.Join(dir, "wal", format.SegmentName(uint64(at.Seg)))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The index entry spans the window up to the block; its frame
			// is the last.
			to := at.Off + int64(at.Len)
			frame := data[to-int64(seglog.FrameHeaderLen+recordHeaderLen+len(r.Payload)) : to]
			payload := frame[seglog.FrameHeaderLen+recordHeaderLen:]
			if crcValid {
				// The last element overruns the declared length; the CRC
				// is the new body's.
				payload[len(payload)-len(body)+lastElement(t, enc)] = 0xff
				binary.BigEndian.PutUint32(frame[4:], seglog.Checksum(frame[seglog.FrameHeaderLen:]))
			} else {
				payload[len(payload)-1] ^= 0xff
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			for i, b := range blocks {
				_, err := s.ReadBlock(b.Hash())
				damaged := i >= bad && i < end
				if damaged != (err != nil) || damaged && (!errors.Is(err, seglog.ErrDamaged) || !strings.Contains(err.Error(), b.Hash().Short())) {
					t.Fatalf("ReadBlock of block %d: err = %v; want damaged %v, naming %s", i, err, damaged, b.Hash().Short())
				}
			}
			s.Close()

			s, recov := openStoreT(t, dir, opts)
			var got []Journaled
			if crcValid {
				if cut := s.Stats().WAL.TornTruncated; cut != 0 || recov.Blocks != len(blocks) {
					t.Fatalf("open-time scan: %d bytes cut, %d blocks; want 0, %d (the header inflates)", cut, recov.Blocks, len(blocks))
				}
				got = refusedReplay(t, s, recov, r.Seq)
			} else {
				want := uint64(len(data)) - uint64(to) + uint64(len(frame)) // from the damaged frame on
				if cut := s.Stats().WAL.TornTruncated; cut != want {
					t.Fatalf("the open cut %d bytes, want %d", cut, want)
				}
				got = journaledBlocks(t, recov)
			}
			if len(got) != bad {
				t.Fatalf("recovered %d blocks, want the %d before the damaged one", len(got), bad)
			}
		})
	}
}

// headInsideWindow journals blocks, a node's way, into a fresh store in
// dir, with a head switch on its own, a reorg back to blocks[reorg-1],
// after blocks[reorg-1]: a head record inside the first window. It
// returns the store and where the head record lies.
func headInsideWindow(t *testing.T, dir string, blocks []*types.Block, reorg int) (*DurableStore, Loc) {
	t.Helper()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncNever})
	logBlocks(t, s, blocks[:reorg])
	if err := s.LogHead(blocks[reorg-1].Hash()); err != nil {
		t.Fatal(err)
	}
	logBlocks(t, s, blocks[reorg:])
	var head []Loc
	if _, _, err := s.scan(s.log.Segments(), func(r Record, at Loc) error {
		if r.Type == RecHead {
			head = append(head, at)
		}
		return nil
	}); err != nil || len(head) != 1 {
		t.Fatalf("%d head records: %v", len(head), err)
	}
	if b := backOf(t, s, blocks[reorg].Hash()); b != reorg {
		t.Fatalf("the block after the head record has back %d, want %d: the window does not hold it", b, reorg)
	}
	return s, head[0]
}

// countingReader counts the reads made through it.
type countingReader struct {
	r     io.ReaderAt
	reads int
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.r.ReadAt(p, off)
}

// TestReadBlockIsOneRead: what ReadBlock reads a block through makes one
// positioned read of its segment, for the first, a middle and the last
// record of a window, and for a record whose window holds a head record
// before it.
func TestReadBlockIsOneRead(t *testing.T) {
	const reorg = 20
	blocks := transferBlocks(t, 60, 20)
	s, _ := headInsideWindow(t, t.TempDir(), blocks, reorg)
	defer s.Close()
	backs := wantBacks(blocks)
	last := slices.Index(backs[1:], 0) // the last record of the first window
	if last < 0 {
		last = len(blocks) - 1
	}
	for name, i := range map[string]int{"first": 0, "middle": reorg / 2, "last": last, "after a head record": reorg + 1} {
		h := blocks[i].Hash()
		s.mu.Lock()
		at := s.blocks[h]
		f, err := s.log.Reader(uint64(at.Seg))
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		c := &countingReader{r: f}
		form, sigs, err := readBlock(c, at)
		if err != nil {
			t.Fatalf("%s of a window, block %d: %v", name, i, err)
		}
		if b, err := types.DecodeStoredBlock(form, sigs); err != nil || b.Hash() != h {
			t.Fatalf("%s of a window, block %d: another block, or %v", name, i, err)
		}
		if c.reads != 1 {
			t.Fatalf("%s of a window, block %d: %d reads, want 1", name, i, c.reads)
		}
	}
}

// TestDamagedHeadRecordInsideWindow: a head record that rots inside a
// window makes the block records of the window after it unreadable, each
// an ErrDamaged naming its block: a read checks every frame it reads.
// Those before it, and the next window's, read as before.
func TestDamagedHeadRecordInsideWindow(t *testing.T) {
	const reorg = 20
	blocks := transferBlocks(t, 120, 20)
	end := slices.Index(wantBacks(blocks)[1:], 0) + 1 // where the first window ends
	if end <= reorg+1 || end == len(blocks) {
		t.Fatalf("the first window holds %d of %d records: the case is not exercised", end, len(blocks))
	}
	dir := t.TempDir()
	s, head := headInsideWindow(t, dir, blocks, reorg)
	defer s.Close()
	path := filepath.Join(dir, "wal", format.SegmentName(uint64(head.Seg)))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[head.Off+int64(head.Len)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		_, err := s.ReadBlock(b.Hash())
		damaged := i >= reorg && i < end
		if damaged != (err != nil) || damaged && (!errors.Is(err, seglog.ErrDamaged) || !strings.Contains(err.Error(), b.Hash().Short())) {
			t.Fatalf("ReadBlock of block %d: err = %v; want damaged %v, naming %s", i, err, damaged, b.Hash().Short())
		}
	}
}

// chained is b's record with back, its header guarded as LogBlock guards
// it when guard is set, copying from the storage form of the block before
// it.
func chained(before, b *types.Block, back int, guard bool) []byte {
	var e lz.Encoder
	e.Next(nil, append(e.Window(), before.AppendStored(nil)...), 0)
	form := b.AppendStored(nil)
	header := 0
	if guard {
		header = 8 + int(binary.BigEndian.Uint64(form))
	}
	return b.AppendSigs(e.Next(lz.AppendBack(nil, back), append(e.Window(), form...), header))
}

// TestOutOfWindowRecordStopsCollection: a CRC-valid RecBlock or
// RecHeadBlock that no writer produces — a back that does not follow the
// record before it, a back past the window's records or past its bytes,
// a chained record first in its segment, a header that copies from the
// window — is damage to the open-time scan, which cuts the journal there
// with everything behind it, as for any record whose header does not
// inflate. The head switch of a cut RecHeadBlock is cut with it.
func TestOutOfWindowRecordStopsCollection(t *testing.T) {
	blocks := transferBlocks(t, 3, 20)
	small := transferBlocks(t, windowRecords+1, 1) // a window full by records, then one more
	big := transferBlocks(t, 40, 80)
	full := slices.Index(wantBacks(big)[1:], 0) + 1 // a window full by bytes, then one more
	if full >= windowRecords {
		t.Fatalf("the first window of 80-transfer blocks holds %d records: the case is not exercised", full)
	}
	for name, c := range map[string]struct {
		before      []*types.Block // journaled before the bad record, and recovered
		payload     []byte
		segmentSize int64
	}{
		"back does not follow":       {blocks[:1], chained(blocks[0], blocks[1], 3, true), 0},
		"back past the window":       {small[:windowRecords], chained(small[windowRecords-1], small[windowRecords], windowRecords, true), 0},
		"back past the bytes":        {big[:full], chained(big[full-1], big[full], full, true), 0},
		"chained, first in segment":  {blocks[:1], chained(blocks[0], blocks[1], 1, true), 4 << 10},
		"header copies the window":   {blocks[:1], chained(blocks[0], blocks[0], 1, false), 0},
		"no back":                    {blocks[:1], nil, 0},
		"back of ten bytes, garbled": {blocks[:1], []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, 0},
	} {
		t.Run(name, func(t *testing.T) {
			for _, typ := range []byte{RecBlock, RecHeadBlock} {
				t.Run(fmt.Sprintf("type %d", typ), func(t *testing.T) {
					dir := t.TempDir()
					opts := StoreOptions{Fsync: seglog.SyncNever, SegmentSize: c.segmentSize}
					s, _ := openStoreT(t, dir, opts)
					logBlocks(t, s, c.before)
					seq, at, err := appendRec(s, typ, c.payload)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.LogHeadBlock(blocks[2]); err != nil {
						t.Fatal(err)
					}
					_, rec := reopenCut(t, s, dir, opts, seq, at)
					last := c.before[len(c.before)-1].Hash()
					if got := journaledBlocks(t, rec); len(got) != len(c.before) || got[len(got)-1].Block.Hash() != last {
						t.Fatalf("recovered %d blocks, want the %d before the bad record", len(got), len(c.before))
					}
					if rec.Head != last {
						t.Fatalf("head %s, want the head before the cut record", rec.Head.Short())
					}
				})
			}
		})
	}
	// The same record with a back that follows and a guarded header is
	// what LogBlock writes: it is collected.
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncNever})
	if err := s.LogBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := appendRec(s, RecHeadBlock, chained(blocks[0], blocks[1], 1, true)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, rec := openStoreT(t, dir, StoreOptions{})
	if cut := s.Stats().WAL.TornTruncated; rec.Blocks != 2 || cut != 0 || rec.Head != blocks[1].Hash() {
		t.Fatalf("a well-formed chained record: %d blocks, %d bytes cut, head %s", rec.Blocks, cut, rec.Head.Short())
	}
	readsBack(t, s, blocks[:2])
}
