package nodestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/seglog"
)

// TestIndexAgainstMap drives the table through adds, moves and removes
// beside a plain map. Half the keys crowd the top of the key space, so
// probe runs wrap around the end of the table and removals shift entries
// back across it; a fifth share a prefix with an earlier key and land
// in the overflow.
func TestIndexAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ix := newIndex()
	model := map[cryptoutil.Hash]loc{}
	var keys []cryptoutil.Hash
	fresh := func() cryptoutil.Hash {
		var h cryptoutil.Hash
		rng.Read(h[:])
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			binary.BigEndian.PutUint64(h[:], ^uint64(0)-uint64(rng.Intn(1<<40)))
		case 5, 6:
			if len(keys) > 0 {
				copy(h[:8], keys[rng.Intn(len(keys))][:8])
			}
		}
		return h
	}
	check := func(step int) {
		t.Helper()
		if ix.len() != len(model) {
			t.Fatalf("step %d: %d entries, want %d", step, ix.len(), len(model))
		}
		for h, l := range model {
			if !ix.holds(h, l) {
				t.Fatalf("step %d: %s not held at %x", step, h.Short(), l)
			}
		}
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(keys) == 0:
			h := fresh()
			if _, dup := model[h]; dup {
				continue
			}
			l := makeLoc(uint64(1+rng.Intn(9)), int64(rng.Intn(1<<20)), rng.Intn(5000))
			ix.add(h, l)
			model[h] = l
			keys = append(keys, h)
		case op < 8:
			h := keys[rng.Intn(len(keys))]
			to := makeLoc(uint64(10+rng.Intn(9)), int64(rng.Intn(1<<20)), 7)
			ix.move(h, to)
			model[h] = to
		default:
			i := rng.Intn(len(keys))
			h := keys[i]
			ix.remove(h)
			if ix.holds(h, model[h]) {
				t.Fatalf("step %d: removed %s is still held", step, h.Short())
			}
			delete(model, h)
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		}
		if step%500 == 0 {
			check(step)
		}
	}
	check(-1)
	if len(ix.over) == 0 || ix.used < minSlots {
		t.Fatalf("run exercised %d overflow entries and %d slots: want some of the first and a grown table", len(ix.over), ix.used)
	}
}

func TestLocPacking(t *testing.T) {
	for _, c := range []struct {
		seg    uint64
		off    int64
		n, len int
	}{
		{1, 8, 0, 0}, {1, 8, 1, 1}, {7, 123456, 4094, 4094}, {7, 123456, 4095, locMaxLen},
		{maxSegment, maxOffset, MaxNodeLen, locMaxLen},
	} {
		for _, flag := range []loc{0, locLegacy} {
			l := makeLoc(c.seg, c.off, c.n) | flag
			if l == 0 || l.seg() != c.seg || l.off() != c.off || l.len() != c.len || l.legacy() != (flag != 0) {
				t.Fatalf("makeLoc(%d, %d, %d) | %x unpacks to %d, %d, %d, legacy %v", c.seg, c.off, c.n, flag, l.seg(), l.off(), l.len(), l.legacy())
			}
		}
	}
	if end := maxSegmentSize + seglog.FrameHeaderLen + format.MaxBody; end > maxOffset {
		t.Fatalf("a segment of maxSegmentSize and the frame past it reach offset %d, past the field's %d", end, maxOffset)
	}
}

// TestIndexBytesPerRecord: what a record costs in RAM once it is on
// disk — the store's live heap growth over 200 K committed records — is
// at most 32 bytes.
func TestIndexBytesPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("commits 200 K records")
	}
	const records = 200_000
	s := testOpen(t, t.TempDir(), Options{Sync: SyncNever, CacheBytes: -1})
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	payload := make([]byte, 40)
	for i := 0; i < records; {
		b := s.NewBatch(uint64(i))
		for end := i + 1000; i < end; i++ {
			binary.BigEndian.PutUint64(payload, uint64(i))
			if err := b.Put(cryptoutil.HashBytes(payload), payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	grown := int64(heap()) - int64(before)
	if got := s.Stats().Records; got != records {
		t.Fatalf("%d records", got)
	}
	per := float64(grown) / records
	t.Logf("%d records: heap grew %d B, %.1f B/record (%d slots)", records, grown, per, len(s.ix.slots))
	if per > 32 {
		t.Fatalf("%.1f heap bytes per record, want at most 32", per)
	}
	runtime.KeepAlive(s)
}

// collide returns n hashes that share their first 64 bits.
func collide(n int) []cryptoutil.Hash {
	out := make([]cryptoutil.Hash, n)
	for i := range out {
		out[i] = cryptoutil.HashBytes([]byte("the shared prefix"))
		out[i][31] = byte(i)
	}
	return out
}

// TestPrefixCollisions: hashes that agree in the 64 bits the index keys
// on are still distinct records — each readable under its own hash,
// Has exact for one never stored, a sweep dropping one and keeping the
// other whichever of them holds the table slot — and a reopen finds the
// same.
func TestPrefixCollisions(t *testing.T) {
	for _, dropFirst := range []bool{true, false} {
		dir := t.TempDir()
		opts := Options{SegmentSize: 128, CacheBytes: -1, Sync: SyncNever}
		s := testOpen(t, dir, opts)
		hs := collide(4) // three stored, the fourth never
		payloads := [][]byte{[]byte("first under the prefix"), []byte("second, in the overflow"), noise(5000, 3)}
		put := func(height uint64, i int) {
			t.Helper()
			b := s.NewBatch(height)
			if err := b.Put(hs[i], payloads[i]); err != nil {
				t.Fatal(err)
			}
			if b.Has(hs[3]) || s.Has(hs[3]) {
				t.Fatal("Has answers for a hash that only shares a stored one's prefix")
			}
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		put(1, 0)
		put(1, 1)
		put(1, 2)                                       // longer than a loc's length field counts, and in the overflow
		put(1, 1)                                       // a second commit of a stored hash stays a no-op
		putNodes(t, s, 9, bytes.Repeat([]byte{9}, 200)) // seals what holds them
		verify := func(s *Store, held []int) {
			t.Helper()
			if got := s.Stats().Records; got != len(held)+1 {
				t.Fatalf("%d records, want %d", got, len(held)+1)
			}
			for i := range hs {
				want := []byte(nil)
				for _, k := range held {
					if k == i {
						want = payloads[i]
					}
				}
				got, err := getRaw(s, hs[i])
				switch {
				case want == nil && (!errors.Is(err, ErrNotFound) || s.Has(hs[i])):
					t.Fatalf("hash %d: %v, Has %v; want absent", i, err, s.Has(hs[i]))
				case want != nil && (err != nil || !bytes.Equal(got, want) || !s.Has(hs[i])):
					t.Fatalf("hash %d: %d bytes, %v, Has %v", i, len(got), err, s.Has(hs[i]))
				}
			}
		}
		verify(s, []int{0, 1, 2})

		m := NewMarker()
		dead, held := 1, []int{0, 2}
		if dropFirst {
			dead, held = 0, []int{1, 2}
		}
		for _, i := range held {
			m.Keep(hs[i])
		}
		if n, err := s.Compact(m, 5); err != nil || n != 1 {
			t.Fatalf("Compact dropped %d, %v; want hash %d alone", n, err, dead)
		}
		verify(s, held)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = testOpen(t, dir, opts)
		verify(s, held)
		// The dropped hash comes back as a new record beside its prefix-mates.
		b := s.NewBatch(10)
		if err := b.Put(hs[dead], payloads[dead]); err != nil || b.Commit() != nil {
			t.Fatal("re-commit of the dropped hash failed")
		}
		verify(s, []int{0, 1, 2})
	}
}
