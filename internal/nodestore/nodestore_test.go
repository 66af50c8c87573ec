package nodestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/metrics"
	"dcsledger/internal/mpt"
	"dcsledger/internal/seglog"
)

func testOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// getRaw reads the payload stored under h, undecoded.
func getRaw(s *Store, h cryptoutil.Hash) ([]byte, error) {
	v, err := s.Node(h, func(_ cryptoutil.Hash, enc []byte) (any, int, error) { return enc, len(enc), nil })
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

func putNodes(t *testing.T, s *Store, height uint64, payloads ...[]byte) []cryptoutil.Hash {
	t.Helper()
	b := s.NewBatch(height)
	hashes := make([]cryptoutil.Hash, len(payloads))
	for i, p := range payloads {
		hashes[i] = cryptoutil.HashBytes(p)
		if err := b.Put(hashes[i], p); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return hashes
}

// noise returns n bytes that do not compress.
func noise(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestPutGetRoundTrip(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{})
	// Beside the ordinary ones: empty, runs that compress to a few bytes,
	// and stored payloads around and past what an index entry's length
	// field counts (one read becomes two).
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), {}, bytes.Repeat([]byte{7}, 1000), bytes.Repeat([]byte{8}, 20000),
		noise(locMaxLen-70, 1), noise(locMaxLen-66, 2), noise(locMaxLen-60, 3), noise(locMaxLen+1, 4), noise(20000, 5)}
	hashes := putNodes(t, s, 5, payloads...)
	for i, h := range hashes {
		got, err := getRaw(s, h)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("Get(%d) = %q, want %q", i, got, payloads[i])
		}
	}
	if _, err := getRaw(s, cryptoutil.HashBytes([]byte("missing"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing hash: got %v, want ErrNotFound", err)
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{SegmentSize: 256}) // force several rotations
	var payloads [][]byte
	for i := 0; i < 50; i++ {
		payloads = append(payloads, []byte(fmt.Sprintf("node-%03d-%s", i, bytes.Repeat([]byte{'x'}, i))))
	}
	hashes := putNodes(t, s, 1, payloads...)
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := testOpen(t, dir, Options{SegmentSize: 256})
	if s2.Stats().Records != len(hashes) {
		t.Fatalf("reopened Len = %d, want %d", s2.Stats().Records, len(hashes))
	}
	for i, h := range hashes {
		got, err := getRaw(s2, h)
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("reopened Get(%d) = %q,%v", i, got, err)
		}
	}
}

func TestDuplicatePutIsIdempotent(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{SegmentSize: 64})
	p := []byte("same-node")
	h := cryptoutil.HashBytes(p)
	putNodes(t, s, 1, p)
	before := s.Stats().Appends
	// Same content again, in a new batch: no new record.
	b := s.NewBatch(2)
	if err := b.Put(h, p); err != nil {
		t.Fatal(err)
	}
	if !b.Has(h) {
		t.Fatal("Has should see the staged/stored node")
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Appends; got != before {
		t.Fatalf("duplicate commit appended %d records", got-before)
	}
	// The original height wins (records are immutable): with nothing
	// marked, a floor between the two commits drops it.
	putNodes(t, s, 2, bytes.Repeat([]byte{1}, 100))
	putNodes(t, s, 2, bytes.Repeat([]byte{2}, 100)) // seals the first segment
	if n, err := s.Compact(NewMarker(), 2); err != nil || n != 1 || s.Has(h) {
		t.Fatalf("Compact below the second commit dropped %d (%v), record still held: %v", n, err, s.Has(h))
	}
}

func TestTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	hashes := putNodes(t, s, 1, []byte("keep-1"), []byte("keep-2"))
	lost := putNodes(t, s, 2, []byte("torn-away"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop a few bytes off the newest segment.
	path := filepath.Join(dir, format.SegmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := testOpen(t, dir, Options{})
	if s2.Stats().Records != 2 {
		t.Fatalf("after repair Len = %d, want 2", s2.Stats().Records)
	}
	if s2.Stats().TornBytes == 0 {
		t.Fatal("expected TornBytes > 0")
	}
	for _, h := range hashes {
		if _, err := getRaw(s2, h); err != nil {
			t.Fatalf("intact record lost: %v", err)
		}
	}
	if _, err := getRaw(s2, lost[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn record: got %v, want ErrNotFound", err)
	}
	// The store must append cleanly after the repair.
	again := putNodes(t, s2, 3, []byte("after-repair"))
	if _, err := getRaw(s2, again[0]); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
}

func TestGarbledInteriorSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{SegmentSize: 128})
	var payloads [][]byte
	for i := 0; i < 20; i++ {
		payloads = append(payloads, bytes.Repeat([]byte{byte(i)}, 64))
	}
	putNodes(t, s, 1, payloads...)
	if s.Stats().Segments < 2 {
		t.Fatal("need at least two segments")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the FIRST segment: not a tail, must refuse.
	path := filepath.Join(dir, format.SegmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior damage: got %v, want ErrCorrupt", err)
	}
}

func TestNodeCacheAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	s := testOpen(t, t.TempDir(), Options{CacheBytes: 100})
	s.RegisterMetrics(reg)
	decode := func(h cryptoutil.Hash, enc []byte) (any, int, error) {
		return string(enc), 40, nil
	}
	payloads := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	hashes := putNodes(t, s, 1, payloads...)

	// Misses fill the cache (40+40+40 > 100 evicts the oldest).
	for _, h := range hashes {
		if _, err := s.Node(h, decode); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheMisses != 3 || st.CacheHits != 0 {
		t.Fatalf("misses=%d hits=%d, want 3/0", st.CacheMisses, st.CacheHits)
	}
	if st.CacheEvicts != 1 {
		t.Fatalf("evicts=%d, want 1", st.CacheEvicts)
	}
	if st.CacheBytes != 80 || st.CacheCap != 100 {
		t.Fatalf("bytes=%d cap=%d, want 80/100", st.CacheBytes, st.CacheCap)
	}
	// Newest two are hits; evicted oldest is a miss again.
	if v, err := s.Node(hashes[2], decode); err != nil || v.(string) != "three" {
		t.Fatalf("Node = %v,%v", v, err)
	}
	if _, err := s.Node(hashes[0], decode); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 4 {
		t.Fatalf("hits=%d misses=%d, want 1/4", st.CacheHits, st.CacheMisses)
	}
	// Metrics registry sees the same numbers.
	snap := reg.Snapshot()
	if snap["nodestore_cache_hits_total"] != 1 || snap["nodestore_cache_bytes"] != 80 {
		t.Fatalf("metrics snapshot = %v", snap)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{CacheBytes: -1})
	h := putNodes(t, s, 1, []byte("uncached"))[0]
	decodes := 0
	decode := func(cryptoutil.Hash, []byte) (any, int, error) { decodes++; return 1, 1, nil }
	for i := 0; i < 3; i++ {
		if _, err := s.Node(h, decode); err != nil {
			t.Fatal(err)
		}
	}
	if decodes != 3 {
		t.Fatalf("decodes = %d, want 3 (cache disabled)", decodes)
	}
}

func TestDecodeErrorPropagates(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{})
	h := putNodes(t, s, 1, []byte("junk"))[0]
	boom := errors.New("boom")
	if _, err := s.Node(h, func(cryptoutil.Hash, []byte) (any, int, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

// TestRottenRecordIsCorrupt: no checksum is verified when one record is
// read back, so the reader's own hash check is what catches bit rot —
// as ErrCorrupt, never as a served node or an absent key; a rotten key
// makes the hash unknown to the store, which the trie reports as a
// missing node, not an absent key either.
func TestRottenRecordIsCorrupt(t *testing.T) {
	for name, into := range map[string]int64{"payload": cryptoutil.HashSize + 3, "key": 5} {
		dir := t.TempDir()
		s := testOpen(t, dir, Options{CacheBytes: -1})
		tr := mpt.New().Set([]byte("key"), []byte("value"))
		b := s.NewBatch(1)
		root, err := tr.Commit(b)
		if err != nil || b.Commit() != nil {
			t.Fatal("commit failed")
		}
		if v, ok, err := mpt.Load(root, 1, s).TryGet([]byte("key")); err != nil || !ok || string(v) != "value" {
			t.Fatalf("%s: before the rot: %q, %v, %v", name, v, ok, err)
		}
		f, err := os.OpenFile(filepath.Join(dir, format.SegmentName(1)), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		held, _ := s.ix.lookup(root)
		at := held.off() + into
		var one [1]byte
		if _, err := f.ReadAt(one[:], at); err != nil {
			t.Fatal(err)
		}
		one[0] ^= 0x40
		if _, err := f.WriteAt(one[:], at); err != nil || f.Close() != nil {
			t.Fatal(err)
		}
		_, ok, err := mpt.Load(root, 1, s).TryGet([]byte("key"))
		if want := map[string]error{"payload": ErrCorrupt, "key": ErrNotFound}[name]; !errors.Is(err, want) || ok {
			t.Fatalf("%s rotten: found %v, err %v; want %v", name, ok, err, want)
		}
	}
}

func TestCompactDropsUnmarkedBelowFloor(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{SegmentSize: 128})
	old := putNodes(t, s, 1, []byte("dead-but-old-1"), []byte("dead-but-old-2"))
	marked := putNodes(t, s, 2, []byte("old-but-reachable"))
	recent := putNodes(t, s, 9, []byte("above-floor"))
	// Pad so the victims live in sealed segments.
	putNodes(t, s, 9, bytes.Repeat([]byte{1}, 200), bytes.Repeat([]byte{2}, 200))

	m := NewMarker()
	if !m.Keep(marked[0]) {
		t.Fatal("first Keep must report fresh")
	}
	if m.Keep(marked[0]) {
		t.Fatal("second Keep must report already-marked")
	}
	dropped, err := s.Compact(m, 5)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	for _, h := range old {
		if s.Has(h) {
			t.Fatal("dead record survived compaction")
		}
	}
	for _, h := range append(marked, recent...) {
		if got, err := getRaw(s, h); err != nil || len(got) == 0 {
			t.Fatalf("live record lost: %v", err)
		}
	}

	// Reopen: the compacted layout must rebuild cleanly.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := testOpen(t, dir, Options{})
	if s2.Has(old[0]) || !s2.Has(marked[0]) || !s2.Has(recent[0]) {
		t.Fatal("reopen after compact lost the wrong records")
	}
}

func TestCompactThenReadRace(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{SegmentSize: 256})
	var payloads [][]byte
	for i := 0; i < 40; i++ {
		payloads = append(payloads, []byte(fmt.Sprintf("live-%04d-%s", i, bytes.Repeat([]byte{'y'}, 32))))
	}
	hashes := putNodes(t, s, 10, payloads...)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := hashes[(g*53+i)%len(hashes)]
				if got, err := getRaw(s, h); err != nil || len(got) == 0 {
					t.Errorf("Get during compact: %v", err)
					return
				}
			}
		}(g)
	}
	// Everything is at height 10 >= floor, so compaction keeps all
	// records while rewriting segments under the readers.
	for i := 0; i < 5; i++ {
		if _, err := s.Compact(NewMarker(), 5); err != nil {
			t.Errorf("Compact: %v", err)
		}
	}
	wg.Wait()
}

func TestSyncPolicies(t *testing.T) {
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy must fail")
	}
	for _, name := range []string{"always", "interval", "never"} {
		p, err := ParseSyncPolicy(name)
		if err != nil {
			t.Fatalf("ParseSyncPolicy(%s): %v", name, err)
		}
		if p.String() != name {
			t.Fatalf("round-trip %s != %s", p.String(), name)
		}
	}
	// Interval policy syncs only once the injected clock advances.
	now := time.Unix(1000, 0)
	s := testOpen(t, t.TempDir(), Options{Sync: SyncInterval, Clock: func() time.Time { return now }})
	base := s.Stats().Syncs
	putNodes(t, s, 1, []byte("a"))
	if got := s.Stats().Syncs; got != base {
		t.Fatalf("synced before interval elapsed: %d", got-base)
	}
	now = now.Add(seglog.DefaultSyncEvery)
	putNodes(t, s, 1, []byte("b"))
	if got := s.Stats().Syncs; got != base+1 {
		t.Fatalf("syncs = %d, want %d", got, base+1)
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{})
	h := putNodes(t, s, 1, []byte("x"))[0]
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := getRaw(s, h); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
	b := s.NewBatch(2)
	if err := b.Put(cryptoutil.HashBytes([]byte("y")), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit after close: %v", err)
	}
	if _, err := s.Compact(nil, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestOversizeNodeRejected(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{})
	b := s.NewBatch(1)
	big := make([]byte, MaxNodeLen+1)
	if err := b.Put(cryptoutil.HashBytes(big), big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize Put: %v", err)
	}
}

func TestConcurrentBatchesAndReads(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{SegmentSize: 1024, Sync: SyncNever})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := []byte(fmt.Sprintf("w%d-i%d", w, i))
				h := cryptoutil.HashBytes(p)
				b := s.NewBatch(uint64(i))
				if err := b.Put(h, p); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if err := b.Commit(); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
				if got, err := getRaw(s, h); err != nil || !bytes.Equal(got, p) {
					t.Errorf("readback: %q, %v", got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Stats().Records != 200 {
		t.Fatalf("Len = %d, want 200", s.Stats().Records)
	}
}
