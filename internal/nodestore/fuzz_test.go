package nodestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dcsledger/internal/cryptoutil"
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

// FuzzNodeDecode fuzzes the segment/frame codec the way a crash (or a
// hostile disk) would exercise it: arbitrary bytes are written as a
// segment file and scanned. The scanner must never panic, never
// over-allocate past the frame bound, and — for the frames it does
// accept — re-encoding must reproduce the input bytes exactly (one
// encoding per content: no padded uvarint, no count that disagrees with
// the records). The store must then open the same file, repairing it as
// a torn tail, and serve exactly the accepted records.
func FuzzNodeDecode(f *testing.F) {
	// Seed: a valid segment of two frames, then mutations of it.
	nodes := trieRecords(f)
	valid := encodeFrame([]byte(segMagic), 7, []record{{cryptoutil.HashBytes([]byte("seed-node-a")), []byte("seed-node-a")}, {payload: bytes.Repeat([]byte{3}, 100)}})
	valid = encodeFrame(valid, 300, nodes)
	f.Add(valid)
	f.Add([]byte(segMagic))
	f.Add(valid[:len(valid)-3])             // torn tail
	f.Add(append([]byte("XXXXXXXX"), 1, 2)) // bad magic
	huge := binary.BigEndian.AppendUint32([]byte(segMagic), uint32(format.MaxBody+1))
	f.Add(append(huge, 0, 0, 0, 0)) // oversize length field
	// CRC-valid frames that are not the one encoding of their content.
	for _, body := range malformedBodies() {
		f.Add(seglog.AppendFrame([]byte(segMagic), body))
	}

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
		want := make(map[cryptoutil.Hash][]byte)
		valid, err := format.Scan(file, nil, func(_ int64, body []byte) error {
			height, recs, ok := parseFrame(1, 0, body, nil)
			if !ok {
				return seglog.ErrDamaged
			}
			flat := make([]record, len(recs))
			for i, r := range recs {
				// The fuzzer controls the key field, so two records may
				// claim one hash with different payloads — the index keeps
				// the last occurrence, like any overwrite-on-rebuild KV.
				flat[i] = record{r.key, append([]byte(nil), r.payload...)}
				want[r.key] = flat[i].payload
			}
			out = encodeFrame(out, height, flat)
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
		for h, payload := range want {
			got, err := getRaw(s, h)
			if err != nil {
				t.Fatalf("read %s: %v", h.Short(), err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("payload mismatch for %s", h.Short())
			}
			// A record that is a trie node proves itself: decoded by the
			// trie layer it re-encodes to the stored bytes.
			if proof, err := mpt.Load(h, 1, s).Prove(nil); err == nil && !bytes.Equal(proof[0], payload) {
				t.Fatalf("%s: node re-encodes to %x, stored %x", h.Short(), proof[0], payload)
			}
		}
	})
}

// malformedBodies are frame bodies that say the same as a canonical one,
// or nothing, in a form parseFrame must not accept.
func malformedBodies() map[string][]byte {
	key := bytes.Repeat([]byte{9}, cryptoutil.HashSize)
	one := append(append([]byte(nil), key...), 1, 'x')
	return map[string][]byte{
		"padded height":   append([]byte{0x87, 0x00, 1}, one...),
		"padded length":   append(append([]byte{7, 1}, key...), 0x81, 0x00, 'x'),
		"count over":      append([]byte{7, 2}, one...),
		"count under":     append(append([]byte{7, 1}, one...), one...),
		"count zero":      {7, 0},
		"short key":       append([]byte{7, 1}, key[:31]...),
		"payload cut":     append(append([]byte{7, 1}, key...), 5, 'x'),
		"length over max": append(append([]byte{7, 1}, key...), binary.AppendUvarint(nil, MaxNodeLen+1)...),
	}
}

// TestFrameSeedsAreRefused pins what the malformed fuzz seeds stand for:
// a CRC-valid frame that is not canonical is damage, not content.
func TestFrameSeedsAreRefused(t *testing.T) {
	for name, body := range malformedBodies() {
		if _, recs, ok := parseFrame(1, 0, body, nil); ok {
			t.Errorf("%s: accepted as %d records", name, len(recs))
		}
	}
	canonical := append(append([]byte{7, 1}, bytes.Repeat([]byte{9}, cryptoutil.HashSize)...), 1, 'x')
	if h, recs, ok := parseFrame(1, 0, canonical, nil); !ok || h != 7 || len(recs) != 1 || string(recs[0].payload) != "x" {
		t.Fatalf("the canonical frame: height %d, %d records, ok %v", h, len(recs), ok)
	}
}
