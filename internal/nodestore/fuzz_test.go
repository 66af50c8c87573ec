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
