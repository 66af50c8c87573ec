package nodestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/lz"
	"dcsledger/internal/mpt"
	"dcsledger/internal/seglog"
)

// trieRecords commits a small trie and returns its nodes as the store
// would frame them: leaves and extensions whose packed paths have odd and
// even nibble counts, and the branches over them.
func trieRecords(f *testing.F) []record {
	tr := mpt.New()
	for _, k := range []string{"a", "ab", "abc", "abd", "b0", "b1", "key-long-enough-to-leave-an-extension-1", "key-long-enough-to-leave-an-extension-2"} {
		tr = tr.Set([]byte(k), []byte("value of "+k))
	}
	s, err := Open(f.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	sink := &recordingSink{Batch: s.NewBatch(1)}
	if _, err := tr.Commit(sink); err != nil {
		f.Fatal(err)
	}
	return sink.staged
}

// deltaRecords returns trie records as two flushes write them — a trie,
// then the same loaded back and changed, whose branches are deltas
// against the first's — and hand-built ones beside them: a full branch
// of six children, a chain of three deltas on it, and deltas against it
// that the trie layer refuses (a missing base, a base that is a leaf, a
// differ bitmap not within present, one child, and one more delta on top
// of the chain), each under the hash its branch would have.
func deltaRecords(tb testing.TB) (trie, hand []record) {
	s, err := Open(tb.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	tr := mpt.New()
	for i := range 64 {
		tr = tr.Set([]byte(fmt.Sprintf("acct-%02d", i)), []byte{byte(i)})
	}
	for height := range uint64(2) {
		sink := &recordingSink{Batch: s.NewBatch(height)}
		root, err := tr.Commit(sink)
		if err != nil || sink.Commit() != nil {
			tb.Fatal("commit failed")
		}
		trie = append(trie, sink.staged...)
		tr = mpt.Load(root, tr.Len(), s).Set([]byte("acct-07"), []byte("changed"))
	}
	var kids [16]cryptoutil.Hash
	for i := range 6 {
		kids[i] = cryptoutil.HashBytes([]byte{byte(i)})
	}
	full := append([]byte{0, 0, 0b111111}, bytes.Join([][]byte{kids[0][:], kids[1][:], kids[2][:], kids[3][:], kids[4][:], kids[5][:]}, nil)...)
	hand = append(hand, record{branchHash(kids), append(full, 0)})
	leaf := []byte{2, 1, 0x10, 1, 'v'}
	leafKey := cryptoutil.HashBytes([]byte{2}, []byte{0, 0, 1}, []byte{1}, []byte{0, 0, 1}, []byte{'v'})
	hand = append(hand, record{leafKey, leaf})
	other, full6 := cryptoutil.HashBytes([]byte("other")), kids
	changed := func(at ...int) cryptoutil.Hash {
		c := full6
		for _, i := range at {
			c[i] = other
		}
		return branchHash(c)
	}
	for i := range 4 { // the fourth is one too deep
		base := branchHash(kids)
		kids[i] = cryptoutil.HashBytes([]byte{byte(i), 'd'})
		hand = append(hand, record{branchHash(kids), deltaRecord(base, 0b111111, 1<<i, kids[i])})
	}
	base := hand[0].key
	hand = append(hand,
		record{changed(0), deltaRecord(other, 0b111111, 1, other)},
		record{changed(1), deltaRecord(leafKey, 0b111111, 0b10, other)},
		record{changed(0, 6), deltaRecord(base, 0b111111, 0b1000001, other, other)},
		record{branchHash([16]cryptoutil.Hash{other}), deltaRecord(base, 1, 1, other)})
	return trie, hand
}

// deltaRecord is a trie layer's delta record of these fields and no value.
func deltaRecord(base cryptoutil.Hash, present, differ uint16, hashes ...cryptoutil.Hash) []byte {
	enc := append([]byte{3}, base[:]...)
	enc = binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(enc, present), differ)
	for _, h := range hashes {
		enc = append(enc, h[:]...)
	}
	return append(enc, 0)
}

// branchHash is the hash the trie layer gives a branch of these children
// (zero for none) and no value.
func branchHash(kids [16]cryptoutil.Hash) cryptoutil.Hash {
	parts := [][]byte{{0}}
	for i := range kids {
		parts = append(parts, kids[i][:])
	}
	return cryptoutil.HashBytes(append(parts, []byte{0})...)
}

// reframe appends the frame that carries recs, payloads as stored, at
// height: the one framing of its content.
func reframe(dst []byte, height uint64, recs []framed) []byte {
	body := append(binary.AppendUvarint(nil, height), kindNodes)
	body = binary.AppendUvarint(body, uint64(len(recs)))
	for _, r := range recs {
		body = append(body, r.key[:]...)
		body = binary.AppendUvarint(body, uint64(len(r.payload)))
		body = append(body, r.payload...)
	}
	return seglog.AppendFrame(dst, body)
}

// smallRecords returns n nodes of a few bytes each under their hashes:
// one frame of them is one window per 16.
func smallRecords(n int) []record {
	recs := make([]record, n)
	for i := range recs {
		node := []byte{byte(i), 'n', 'o', 'd', 'e'}
		recs[i] = record{cryptoutil.HashBytes(node), node}
	}
	return recs
}

// uninflatable returns a copy of the stored payload p with the length
// its encoding declares off by one, which no encoding survives: the
// elements then end early, overrun it or run past it.
func uninflatable(p []byte) []byte {
	p = bytes.Clone(p)
	_, k := binary.Uvarint(p)
	p[k] ^= 1
	return p
}

// seedKey is the key of every record of the hand-built bodies below.
var seedKey = bytes.Repeat([]byte{9}, cryptoutil.HashSize)

// chained is a body at height 7 whose records, under seedKey, hold nodes
// in one window however long: what the writer would have restarted.
func chained(nodes ...[]byte) []byte {
	body := []byte{7, kindNodes, byte(len(nodes))}
	start := len(body)
	var e lz.Encoder
	for _, n := range nodes {
		p := binary.AppendUvarint(nil, uint64(len(body)-start))
		e.Extend(append(e.Window(), seedKey...))
		p = e.Next(p, append(e.Window(), n...), 0)
		body = binary.AppendUvarint(append(body, seedKey...), uint64(len(p)))
		body = append(body, p...)
	}
	return body
}

// body1 is a body at height 7, of this kind, of one record under seedKey
// with payload p.
func body1(kind byte, p []byte) []byte {
	return append(binary.AppendUvarint(append([]byte{7, kind, 1}, seedKey...), uint64(len(p))), p...)
}

// payload is back followed by the encoding of node on its own.
func payload(back []byte, node string) []byte {
	return new(lz.Encoder).Encode(back, []byte(node))
}

// FuzzNodeDecode fuzzes the segment/frame codec the way a crash (or a
// hostile disk) would exercise it: arbitrary bytes are written as a
// segment file and scanned. The scanner must never panic, never
// over-allocate past the frame bound, and — for the frames it does
// accept — re-encoding must reproduce the input bytes exactly (one
// framing per content: no padded uvarint, no count that disagrees with
// the records, no window past its bounds). The store must then open the
// same file, repairing it as a torn tail, and serve exactly the accepted
// records: each read at random, its window read and inflated behind it,
// must give what inflating its frame in order gives, and a record that
// does not inflate so must be ErrCorrupt.
func FuzzNodeDecode(f *testing.F) {
	// Seed: a valid segment of two frames, then mutations of it.
	nodes := trieRecords(f)
	var w frameWriter
	valid := w.frame([]byte(segMagic), 7, []record{{cryptoutil.HashBytes([]byte("seed-node-a")), []byte("seed-node-a")}, {payload: bytes.Repeat([]byte{3}, 100)}})
	valid = w.frame(valid, 300, nodes)
	f.Add(valid)
	f.Add([]byte(segMagic))
	f.Add(valid[:len(valid)-3])                                 // torn tail
	f.Add(append([]byte("XXXXXXXX"), 1, 2))                     // bad magic
	f.Add(append([]byte("DCSNS002"), valid[len(segMagic):]...)) // a replaced format
	huge := binary.BigEndian.AppendUint32([]byte(segMagic), uint32(format.MaxBody+1))
	f.Add(append(huge, 0, 0, 0, 0)) // oversize length field
	// CRC-valid frames that are not the one framing of their content.
	for _, body := range malformedBodies() {
		f.Add(seglog.AppendFrame([]byte(segMagic), body))
	}
	// Frames as the writer writes them: a trie behind two frames, and
	// twenty small nodes, a window of sixteen and one of four.
	f.Add(w.frame(bytes.Clone(valid), 301, nodes))
	windowed := w.frame([]byte(segMagic), 5, smallRecords(20))
	f.Add(windowed)
	// The same, CRC-valid, but record 5 does not inflate: it and the ten
	// after it in its window are ErrCorrupt.
	_, recs, _ := parseFrame(1, 0, windowed[len(segMagic)+seglog.FrameHeaderLen:], nil)
	recs[5].payload = uninflatable(recs[5].payload)
	f.Add(reframe([]byte(segMagic), 5, recs))
	// Branches written as deltas, and deltas the trie layer refuses.
	trie, hand := deltaRecords(f)
	f.Add(w.frame(w.frame([]byte(segMagic), 1, trie), 2, hand))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, format.SegmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}

		// Scan it as Open does, re-encoding every accepted frame.
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		out := []byte(segMagic)
		want := make(map[cryptoutil.Hash][]byte) // nil: the record does not inflate
		valid, err := format.Scan(file, nil, func(off int64, body []byte) error {
			height, recs, ok := parseFrame(1, off, body, nil)
			if !ok {
				return seglog.ErrDamaged
			}
			// The fuzzer controls the key field, so two records may
			// claim one hash with different payloads — the index keeps
			// the last occurrence, like any overwrite-on-rebuild KV.
			for i, n := range inflateFrame(recs) {
				want[recs[i].key] = bytes.Clone(n)
			}
			out = reframe(out, height, recs)
			return nil
		})
		if err != nil && !errors.Is(err, seglog.ErrDamaged) && !errors.Is(err, seglog.ErrReplaced) {
			t.Fatalf("scan: %v", err)
		}
		if err == nil && int(valid) != len(data) {
			t.Fatalf("clean scan stopped at %d of %d bytes", valid, len(data))
		}
		if valid > int64(len(data)) {
			t.Fatalf("valid prefix %d exceeds file size %d", valid, len(data))
		}
		if valid >= int64(format.HeaderLen()) && !bytes.Equal(out, data[:valid]) {
			t.Fatalf("re-encode mismatch: %d accepted bytes, %d re-encoded", valid, len(out))
		}

		// Open must repair whatever the fuzzer wrote and come up
		// serving exactly the accepted records.
		// SyncNever: fsync latency would dominate the fuzz loop and
		// durability is not what this target is probing. No cache: each
		// record is read twice below, decoded two ways.
		s, err := Open(dir, Options{Sync: SyncNever, CacheBytes: -1})
		if err != nil {
			return // unrepairable (e.g. bad magic) is a legal outcome
		}
		defer s.Close()
		if got := s.Stats().Records; got != len(want) {
			t.Fatalf("store has %d records, scan found %d", got, len(want))
		}
		for h, node := range want {
			got, err := getRaw(s, h)
			if node == nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("read %s, which does not inflate: %v", h.Short(), err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("read %s: %v", h.Short(), err)
			}
			if !bytes.Equal(got, node) {
				t.Fatalf("node mismatch for %s", h.Short())
			}
			// A record that is a trie node proves itself: decoded by the
			// trie layer it re-encodes to the stored bytes, or, a delta,
			// to the full branch that it stands for and that hashes to h.
			proof, err := mpt.Load(h, 1, s).Prove(nil)
			switch {
			case err != nil:
			case mpt.IsDelta(node):
				if _, _, err := mpt.VerifyProof(h, nil, proof[:1]); err != nil || mpt.IsDelta(proof[0]) {
					t.Fatalf("%s: a delta proves as %x: %v", h.Short(), proof[0], err)
				}
			case !bytes.Equal(proof[0], node):
				t.Fatalf("%s: node re-encodes to %x, stored %x", h.Short(), proof[0], node)
			}
		}
	})
}

// malformedBodies are frame bodies that say the same as a canonical one,
// or nothing, in a form parseFrame must not accept.
func malformedBodies() map[string][]byte {
	key := seedKey
	x := payload([]byte{0}, "x")
	one := append(append(append([]byte(nil), key...), byte(len(x))), x...)
	seventeen := make([][]byte, lz.WindowRecords+1)
	for i := range seventeen {
		seventeen[i] = []byte{byte(i)}
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), windowCap/32)
	notToARecord := chained([]byte("x"))
	notToARecord[2] = 2
	notToARecord = append(notToARecord, body1(kindNodes, payload([]byte{1}, "y"))[3:]...)
	return map[string][]byte{
		"padded height":            append([]byte{0x87, 0x00, kindNodes, 1}, one...),
		"padded count":             append([]byte{7, kindNodes, 0x81, 0x00}, one...),
		"padded length":            append(append(append([]byte{7, kindNodes, 1}, key...), 0x80|byte(len(x)), 0x00), x...),
		"count over":               append([]byte{7, kindNodes, 2}, one...),
		"count under":              append(append([]byte{7, kindNodes, 1}, one...), one...),
		"count zero":               {7, kindNodes, 0},
		"no kind":                  {7},
		"short key":                append([]byte{7, kindNodes, 1}, key[:31]...),
		"payload cut":              append(append([]byte{7, kindNodes, 1}, key...), 5, 'x'),
		"length over max":          append(append([]byte{7, kindNodes, 1}, key...), binary.AppendUvarint(nil, maxPayloadLen+1)...),
		"unknown kind":             body1(kindNodes+1, x),
		"back before the frame":    body1(kindNodes, payload([]byte{3}, "x")), // to the body's first byte
		"padded back":              body1(kindNodes, payload([]byte{0x80, 0x00}, "x")),
		"no back":                  body1(kindNodes, nil),
		"no declared length":       body1(kindNodes, []byte{0}),
		"back not to a record":     notToARecord,
		"over sixteen records":     chained(seventeen...),
		"window over the cap":      chained(big, big),
		"declared length over max": body1(kindNodes, binary.AppendUvarint([]byte{0}, MaxNodeLen+1)),
	}
}

// TestDeltaSeedsAreRefused pins what the delta fuzz seeds stand for: in
// a store, the branches a second flush wrote as deltas read back, prove
// in full form, and the hand-built chain reads at depths up to three;
// the deltas the trie layer refuses, and the one a fourth deep, are
// refused, and the full branch and the leaf they hang on read.
func TestDeltaSeedsAreRefused(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{Sync: SyncNever, CacheBytes: -1})
	trie, hand := deltaRecords(t)
	deltas := 0
	for i, recs := range [][]record{trie, hand} {
		b := s.NewBatch(uint64(i))
		for _, r := range recs {
			if err := b.Put(r.key, r.payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range trie {
		proof, err := mpt.Load(r.key, 1, s).Prove(nil)
		if err != nil || mpt.IsDelta(proof[0]) {
			t.Fatalf("trie record %s: %v", r.key.Short(), err)
		}
		if mpt.IsDelta(r.payload) {
			deltas++
		}
	}
	if deltas == 0 {
		t.Fatal("the second flush wrote no delta")
	}
	if got := s.Stats().Records; got != len(trie)+len(hand) {
		t.Fatalf("%d records stored, want %d: two share a key", got, len(trie)+len(hand))
	}
	for i, r := range hand {
		_, err := mpt.Load(r.key, 1, s).Prove(nil)
		if refused := i >= 5; refused != (err != nil) {
			t.Errorf("hand-built record %d (%x…): %v", i, r.payload[:1], err)
		}
	}
}

// TestFrameSeedsAreRefused pins what the malformed fuzz seeds stand for:
// a CRC-valid frame that is not canonical, or whose windows pass their
// bounds, is damage, not content.
func TestFrameSeedsAreRefused(t *testing.T) {
	for name, body := range malformedBodies() {
		if _, recs, ok := parseFrame(1, 0, body, nil); ok {
			t.Errorf("%s: accepted as %d records", name, len(recs))
		}
	}
	canonical := body1(kindNodes, payload([]byte{0}, "x"))
	if h, recs, ok := parseFrame(1, 0, canonical, nil); !ok || h != 7 || len(recs) != 1 || string(inflateFrame(recs)[0]) != "x" {
		t.Fatalf("the canonical frame: height %d, %d records, ok %v", h, len(recs), ok)
	}
	nodes := [][]byte{[]byte("first node"), []byte("first node, again"), bytes.Repeat([]byte{1}, windowCap/4)}
	h, recs, ok := parseFrame(1, 0, chained(nodes...), nil)
	if !ok || h != 7 || len(recs) != len(nodes) {
		t.Fatalf("a canonical chained frame: height %d, %d records, ok %v", h, len(recs), ok)
	}
	for i, n := range inflateFrame(recs) {
		if !bytes.Equal(n, nodes[i]) {
			t.Fatalf("chained record %d inflates to %q", i, n)
		}
	}
}
