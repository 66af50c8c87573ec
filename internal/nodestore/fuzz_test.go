package nodestore

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// reframe appends the frame that carries recs, payloads as stored, at
// height, in the form their places say: the one framing of its content.
func reframe(dst []byte, height uint64, recs []framed) []byte {
	body := binary.AppendUvarint(nil, height)
	if !recs[0].at.legacy() {
		body = append(body, 0, kindNodes)
	}
	body = binary.AppendUvarint(body, uint64(len(recs)))
	for _, r := range recs {
		body = append(body, r.key[:]...)
		body = binary.AppendUvarint(body, uint64(len(r.payload)))
		body = append(body, r.payload...)
	}
	return seglog.AppendFrame(dst, body)
}

// legacyFrame appends the frame a build before windows wrote for recs.
func legacyFrame(dst []byte, height uint64, recs []record) []byte {
	stored := make([]framed, len(recs))
	for i, r := range recs {
		stored[i] = framed{r, locLegacy}
	}
	return reframe(dst, height, stored)
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

// chained is a windowed body at height 7 whose records, under seedKey,
// hold nodes in one window however long: what the writer would have
// restarted.
func chained(nodes ...[]byte) []byte {
	body := []byte{7, 0, kindNodes, byte(len(nodes))}
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

// windowedBody is a body at height 7, marked windowed and of this kind, of
// one record under seedKey with payload p.
func windowedBody(kind byte, p []byte) []byte {
	return append(binary.AppendUvarint(append([]byte{7, 0, kind, 1}, seedKey...), uint64(len(p))), p...)
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
	// Seed: a valid segment of two legacy frames, then mutations of it.
	nodes := trieRecords(f)
	valid := legacyFrame([]byte(segMagic), 7, []record{{cryptoutil.HashBytes([]byte("seed-node-a")), []byte("seed-node-a")}, {payload: bytes.Repeat([]byte{3}, 100)}})
	valid = legacyFrame(valid, 300, nodes)
	f.Add(valid)
	f.Add([]byte(segMagic))
	f.Add(valid[:len(valid)-3])             // torn tail
	f.Add(append([]byte("XXXXXXXX"), 1, 2)) // bad magic
	huge := binary.BigEndian.AppendUint32([]byte(segMagic), uint32(format.MaxBody+1))
	f.Add(append(huge, 0, 0, 0, 0)) // oversize length field
	// CRC-valid frames that are not the one framing of their content.
	for _, body := range malformedBodies() {
		f.Add(seglog.AppendFrame([]byte(segMagic), body))
	}
	// Windowed frames as the writer writes them: a trie behind a legacy
	// frame, and twenty small nodes, a window of sixteen and one of four.
	var w frameWriter
	f.Add(w.frame(bytes.Clone(valid), 301, nodes))
	windowed := w.frame([]byte(segMagic), 5, smallRecords(20))
	f.Add(windowed)
	// The same, CRC-valid, but record 5 does not inflate: it and the ten
	// after it in its window are ErrCorrupt.
	_, recs, _ := parseFrame(1, 0, windowed[len(segMagic)+seglog.FrameHeaderLen:], nil)
	recs[5].payload = uninflatable(recs[5].payload)
	f.Add(reframe([]byte(segMagic), 5, recs))

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
		if err != nil && !errors.Is(err, seglog.ErrDamaged) {
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
			// trie layer it re-encodes to the stored bytes.
			if proof, err := mpt.Load(h, 1, s).Prove(nil); err == nil && !bytes.Equal(proof[0], node) {
				t.Fatalf("%s: node re-encodes to %x, stored %x", h.Short(), proof[0], node)
			}
		}
	})
}

// malformedBodies are frame bodies that say the same as a canonical one,
// or nothing, in a form parseFrame must not accept.
func malformedBodies() map[string][]byte {
	key := seedKey
	one := append(append([]byte(nil), key...), 1, 'x')
	seventeen := make([][]byte, lz.WindowRecords+1)
	for i := range seventeen {
		seventeen[i] = []byte{byte(i)}
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), windowCap/32)
	notToARecord := chained([]byte("x"))
	notToARecord[3] = 2
	notToARecord = append(notToARecord, windowedBody(kindNodes, payload([]byte{1}, "y"))[4:]...)
	return map[string][]byte{
		"padded height":   append([]byte{0x87, 0x00, 1}, one...),
		"padded length":   append(append([]byte{7, 1}, key...), 0x81, 0x00, 'x'),
		"count over":      append([]byte{7, 2}, one...),
		"count under":     append(append([]byte{7, 1}, one...), one...),
		"count zero":      {7, 0},
		"short key":       append([]byte{7, 1}, key[:31]...),
		"payload cut":     append(append([]byte{7, 1}, key...), 5, 'x'),
		"length over max": append(append([]byte{7, 1}, key...), binary.AppendUvarint(nil, MaxNodeLen+1)...),
		// Windowed frames.
		"unknown kind":             windowedBody(kindNodes+1, payload([]byte{0}, "x")),
		"windowed count zero":      {7, 0, kindNodes, 0},
		"back before the frame":    windowedBody(kindNodes, payload([]byte{4}, "x")), // to the body's first byte
		"padded back":              windowedBody(kindNodes, payload([]byte{0x80, 0x00}, "x")),
		"no back":                  windowedBody(kindNodes, nil),
		"no declared length":       windowedBody(kindNodes, []byte{0}),
		"back not to a record":     notToARecord,
		"over sixteen records":     chained(seventeen...),
		"window over the cap":      chained(big, big),
		"declared length over max": windowedBody(kindNodes, binary.AppendUvarint([]byte{0}, MaxNodeLen+1)),
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
	canonical := append(append([]byte{7, 1}, seedKey...), 1, 'x')
	if h, recs, ok := parseFrame(1, 0, canonical, nil); !ok || h != 7 || len(recs) != 1 || string(recs[0].payload) != "x" || !recs[0].at.legacy() {
		t.Fatalf("the canonical frame: height %d, %d records, ok %v", h, len(recs), ok)
	}
	nodes := [][]byte{[]byte("first node"), []byte("first node, again"), bytes.Repeat([]byte{1}, windowCap/4)}
	h, recs, ok := parseFrame(1, 0, chained(nodes...), nil)
	if !ok || h != 7 || len(recs) != len(nodes) || recs[0].at.legacy() {
		t.Fatalf("a canonical windowed frame: height %d, %d records, ok %v", h, len(recs), ok)
	}
	for i, n := range inflateFrame(recs) {
		if !bytes.Equal(n, nodes[i]) {
			t.Fatalf("windowed record %d inflates to %q", i, n)
		}
	}
}
