package nodestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/lz"
	"dcsledger/internal/mpt"
	"dcsledger/internal/seglog"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
)

// verified decodes a node only if it hashes to the key it was read
// under, as the trie layers' decoders do.
func verified(h cryptoutil.Hash, enc []byte) (any, int, error) {
	if cryptoutil.HashBytes(enc) != h {
		return nil, 0, errors.New("content hash mismatch")
	}
	return enc, len(enc), nil
}

// stored returns where h's record lies and its payload as stored.
func stored(t *testing.T, s *Store, h cryptoutil.Hash) (loc, []byte) {
	t.Helper()
	l, _ := s.ix.lookup(h)
	f, err := s.log.Reader(l.seg())
	if err != nil {
		t.Fatal(err)
	}
	_, p, err := s.readRecord(f, l)
	if err != nil {
		t.Fatal(err)
	}
	return l, p
}

// backOf returns the back of h's windowed record.
func backOf(t *testing.T, s *Store, h cryptoutil.Hash) int {
	t.Helper()
	_, p := stored(t, s, h)
	back, _, _, ok := lz.Split(p, MaxNodeLen)
	if !ok {
		t.Fatalf("record %s has no back", h.Short())
	}
	return back
}

// declaredAt returns the segment of h's record and the offset in it of
// the first byte of the length its encoding declares.
func declaredAt(t *testing.T, s *Store, h cryptoutil.Hash) (uint64, int64) {
	t.Helper()
	l, p := stored(t, s, h)
	_, k := binary.Uvarint(p)
	return l.seg(), l.off() + int64(recordLen(len(p))-len(p)+k)
}

// flipBit flips the low bit of the byte at off in segment seg of dir.
func flipBit(t *testing.T, dir string, seg uint64, off int64) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, format.SegmentName(seg)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var one [1]byte
	if _, err := f.ReadAt(one[:], off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 1
	if _, err := f.WriteAt(one[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestDamageInsideWindow: record 5 of a frame of twenty small nodes — a
// window of sixteen, then one of four — is damaged three ways: its bytes
// changed under an open store in the active segment (its frame's CRC now
// fails), the same in a sealed segment, and a CRC-valid frame whose
// record 5 does not inflate, which the open-time scan accepts. Each way,
// records 5–15 read as ErrCorrupt naming their hash, and records 0–4 and
// 16–19 read. Reopened, the torn active segment loses its frame and the
// damaged sealed one is refused, as any damage there is.
func TestDamageInsideWindow(t *testing.T) {
	for _, damage := range []string{"crc fails", "sealed segment", "crc valid"} {
		t.Run(damage, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{CacheBytes: -1, Sync: SyncNever}
			if damage == "sealed segment" {
				opts.SegmentSize = 1024 // the batch is one frame, and the first segment
			}
			s := testOpen(t, dir, opts)
			recs := smallRecords(20)
			var nodes [][]byte
			for _, r := range recs {
				nodes = append(nodes, r.payload)
			}
			hashes := putNodes(t, s, 1, nodes...)
			switch damage {
			case "crc fails":
				seg, off := declaredAt(t, s, hashes[5])
				flipBit(t, dir, seg, off)
			case "sealed segment":
				seg, off := declaredAt(t, s, hashes[5])
				for i := 0; seg == slices.Max(s.log.Segments()); i++ {
					if i == 10 {
						t.Fatal("ten more batches did not seal the window's segment")
					}
					putNodes(t, s, 2, bytes.Repeat([]byte{byte(i)}, 300))
				}
				flipBit(t, dir, seg, off)
			case "crc valid":
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, format.SegmentName(1))
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				at := format.HeaderLen() + seglog.FrameHeaderLen
				height, parsed, ok := parseFrame(1, 0, data[at:], nil)
				if !ok || len(parsed) != len(recs) {
					t.Fatalf("the batch is not one frame of %d records", len(recs))
				}
				parsed[5].payload = uninflatable(parsed[5].payload)
				if err := os.WriteFile(path, reframe(data[:format.HeaderLen()], height, parsed), 0o644); err != nil {
					t.Fatal(err)
				}
				s = testOpen(t, dir, opts)
				if st := s.Stats(); st.Records != len(recs) || st.TornBytes != 0 {
					t.Fatalf("the scan found %d records, repaired %d bytes; want all %d, none", st.Records, st.TornBytes, len(recs))
				}
			}
			for i, h := range hashes {
				_, err := s.Node(h, verified)
				if i >= 5 && i < lz.WindowRecords {
					if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), h.Short()) {
						t.Fatalf("record %d, in the damaged window after the damage: %v; want ErrCorrupt naming %s", i, err, h.Short())
					}
				} else if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir, opts)
			switch damage {
			case "crc fails":
				if err != nil || s2.Stats().Records != 0 || s2.Stats().TornBytes == 0 {
					t.Fatalf("reopen: %v; want the torn frame truncated away", err)
				}
			case "sealed segment":
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("reopen: %v; want ErrCorrupt", err)
				}
			}
			if err == nil {
				s2.Close()
			}
		})
	}
}

// TestReadsAreBounded: a trie node read from disk, wherever it lies in
// its window, takes at most two positioned reads — its record, then the
// records of its window before it — and inflates at most sixteen
// records; some do inflate a whole window.
func TestReadsAreBounded(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{CacheBytes: -1, Sync: SyncNever})
	tr := mpt.New()
	for i := range 3000 {
		tr = tr.Set([]byte(fmt.Sprintf("account-%05d", i)), []byte(fmt.Sprintf("balance %d", i*7)))
	}
	sink := &recordingSink{Batch: s.NewBatch(1)}
	if _, err := tr.Commit(sink); err != nil || sink.Commit() != nil {
		t.Fatal("commit failed")
	}
	inflated := make([]int, lz.WindowRecords+1) // reads by records inflated
	for _, r := range sink.staged {
		before := s.Stats()
		got, err := getRaw(s, r.key)
		if err != nil || !bytes.Equal(got, r.payload) {
			t.Fatalf("read %s: %v", r.key.Short(), err)
		}
		after := s.Stats()
		reads, inflates := after.Reads-before.Reads, after.Inflates-before.Inflates
		if reads < 1 || reads > 2 || inflates < 1 || inflates > lz.WindowRecords {
			t.Fatalf("read %s: %d positioned reads, %d records inflated", r.key.Short(), reads, inflates)
		}
		inflated[inflates]++
		// Has reads the key and inflates nothing.
		if !s.Has(r.key) || s.Stats().Reads != after.Reads+1 || s.Stats().Inflates != after.Inflates {
			t.Fatalf("Has %s: %d reads, %d inflates", r.key.Short(), s.Stats().Reads-after.Reads, s.Stats().Inflates-after.Inflates)
		}
	}
	t.Logf("%d nodes: reads by records inflated %v", len(sink.staged), inflated[1:])
	if inflated[lz.WindowRecords] == 0 {
		t.Fatal("no read inflated a whole window")
	}
}

// TestReadWindowBound: the records before a read one that its back
// reaches are a window's, at most fifteen, each where its own back says,
// and a window of more than one record inflates to at most windowCap
// bytes; bytes that claim more, as rot after the open-time scan could,
// are refused, not inflated: by readWindow when there are too many, by
// inflation when a back is out of place or the cap is passed.
func TestReadWindowBound(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{})
	nodes := make([][]byte, lz.WindowRecords)
	for i := range nodes {
		nodes[i] = []byte{byte(i), 'n'}
	}
	for n, want := range map[int]bool{lz.WindowRecords - 1: true, lz.WindowRecords: false} {
		body := chained(nodes[:n]...)[3:] // the records, from the first key on
		recs, err := s.readWindow(nil, bytes.NewReader(body), 0, len(body))
		if want && (err != nil || len(recs) != n) {
			t.Fatalf("%d records before the read one: %d read, %v", n, len(recs), err)
		}
		if !want && !errors.Is(err, errBadRecord) {
			t.Fatalf("%d records before the read one: %v; want errBadRecord", n, err)
		}
	}
	// A second record that says it starts a window: the read one, whose
	// back names the first, does not inflate.
	body := append(chained(nodes[0])[3:], chained(nodes[1])[3:]...)
	recs, err := s.readWindow(nil, bytes.NewReader(body), 0, len(body))
	if err != nil {
		t.Fatal(err)
	}
	read := framed{record{cryptoutil.Hash(seedKey), payload(binary.AppendUvarint(nil, uint64(len(body))), "x")}, makeLoc(0, int64(len(body)), 0)}
	if got := inflateFrame(append(recs, read)); got[0] == nil || got[1] == nil || got[2] != nil {
		t.Fatalf("a restart inside a window: the read record inflates to %q; want nothing", got[2])
	}
	// A window over the cap: its first node inflates, the one behind it,
	// past the cap already, does not.
	big := noise(windowCap, 7)
	body = chained(big, []byte("x"))[3:]
	if recs, err = s.readWindow(nil, bytes.NewReader(body), 0, len(body)); err != nil {
		t.Fatal(err)
	}
	if got := inflateFrame(recs); !bytes.Equal(got[0], big) || got[1] != nil {
		t.Fatalf("a window over the cap inflates to %d and %d bytes; want %d and none", len(got[0]), len(got[1]), len(big))
	}
}

// TestNodeStoreBytesPerRecord: what a trie node record costs on disk on
// the shape of the fleet's disk-state workload — a genesis of 2 256
// accounts, then sixteen flushes, each of sixteen blocks of about 19
// transfers among 256 senders — is under 130 bytes. Each record stored
// verbatim costs about 170.
func TestNodeStoreBytesPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("signs and applies 4 864 transfers")
	}
	const senders, idle, flushes, blocks, perBlock, limit = 256, 2000, 16, 16, 19, 130
	s := testOpen(t, t.TempDir(), Options{Sync: SyncNever, CacheBytes: 256 << 10})
	keys := make([]*cryptoutil.KeyPair, senders)
	st := state.New()
	for i := range keys {
		keys[i] = cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("nodestore-gate/sender/%d", i)))
		st.Credit(keys[i].Address(), 1_000_000)
	}
	for i := range idle {
		st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte(fmt.Sprintf("nodestore-gate/idle/%d", i)))), 1_000_000)
	}
	var raw int
	flush := func(height uint64) {
		t.Helper()
		tr := st.AccountTrie()
		sink := &recordingSink{Batch: s.NewBatch(height)}
		root, err := tr.Commit(sink)
		if err != nil || sink.Commit() != nil {
			t.Fatalf("flush at %d failed", height)
		}
		for _, r := range sink.staged {
			raw += recordLen(len(r.payload))
		}
		if !st.AdoptTrie(mpt.Load(root, tr.Len(), s)) {
			t.Fatal("the flushed trie was refused")
		}
	}
	flush(0)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, senders-1)
	miner := cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("nodestore-gate/miner")))
	nonces := make([]uint64, senders)
	for height := uint64(1); height <= flushes*blocks; height++ {
		st.Credit(miner, 50)
		for range perBlock {
			from := rng.Intn(senders)
			to := (from + 1 + int(zipf.Uint64())) % senders
			tx := types.NewTransfer(keys[from].Address(), keys[to].Address(), uint64(1+rng.Intn(100)), 2, nonces[from])
			nonces[from]++
			if err := tx.SignDeterministic(keys[from]); err != nil {
				t.Fatal(err)
			}
			if _, err := st.ApplyTx(tx, miner); err != nil {
				t.Fatal(err)
			}
		}
		if height%blocks == 0 {
			flush(height)
		}
	}
	stats := s.Stats()
	per := float64(stats.Bytes) / float64(stats.Appends)
	t.Logf("%d records: %d B written, %.1f B/record; verbatim %d B, %.1f B/record; ratio %.3f",
		stats.Appends, stats.Bytes, per, raw, float64(raw)/float64(stats.Appends), float64(stats.Bytes)/float64(raw))
	if per >= limit {
		t.Fatalf("a node record costs %.1f B on disk, want under %d", per, limit)
	}
}
