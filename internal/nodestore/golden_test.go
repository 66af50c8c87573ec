package nodestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dcsledger/internal/cryptoutil"
)

// goldenOpts is the fixed configuration of the scripted run: a frozen
// clock and a segment size that forty small nodes overflow many times.
func goldenOpts() Options {
	frozen := time.Unix(1_700_000_000, 0)
	return Options{
		SegmentSize: 512,
		Sync:        SyncInterval,
		SyncEvery:   time.Second,
		CacheBytes:  -1,
		Clock:       func() time.Time { return frozen },
	}
}

// goldenPayload is node i of the batch committed at height h.
func goldenPayload(h, i int) []byte {
	return append([]byte(fmt.Sprintf("node-%d-%d-", h, i)), bytes.Repeat([]byte{'x'}, 7*i+h)...)
}

// writeGoldenNodeStore is the scripted run: eight five-node batches, a
// compaction that drops the odd nodes below height 6 (rewriting sealed
// segments into the active one) and one more batch.
func writeGoldenNodeStore(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, goldenOpts())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	marker := NewMarker()
	for h := 1; h <= 8; h++ {
		var payloads [][]byte
		for i := 0; i < 5; i++ {
			p := goldenPayload(h, i)
			payloads = append(payloads, p)
			if i%2 == 0 {
				marker.Keep(cryptoutil.HashBytes(p))
			}
		}
		putNodes(t, s, uint64(h), payloads...)
	}
	if _, err := s.Compact(marker, 6); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	putNodes(t, s, 9, goldenPayload(9, 0), goldenPayload(9, 1))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// hashDir returns the SHA-256 of every file in dir, keyed by name.
func hashDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

// goldenFiles pins every byte the node store puts on disk — file
// names, segment headers, frames (including the ones compaction
// copies forward). The hashes were recorded at commit 56ba322, before
// internal/seglog existed; the segments written by that commit and by
// this one are the same bytes.
var goldenFiles = map[string]string{
	"ns-00000005.seg": "e3149717ce8d1508ad2362900de258dcf6d7adafba00ee863d260a7b56ffcd5d",
	"ns-00000006.seg": "57e5f7a956129d829cc4021c4a463b2df70ace6023892d6b47563b7519c37138",
	"ns-00000007.seg": "c5bde99683877be2669aefa9ef7ea4a2c95ad7bfd99e6aecf36885441561a7f0",
	"ns-00000008.seg": "2dcae8f5d61df485df000289afa9824bde7ea8d773287e2cc569cb3a8d4f1c23",
	"ns-00000009.seg": "94a12c42801e2a249a08444608fbf08ed1c9f45e58b52a7e2b409469cd40cbaf",
}

// parentSideFiles are the nsck-<height>.ck metas the parent binary also
// wrote (the scripted run then checkpointed after the fourth batch and at
// the end). Nothing writes or reads them any more; a directory that still
// holds them must open, and keep them, all the same.
var parentSideFiles = map[string]string{
	"nsck-0000000000000004.ck": "d2bbbc6ce1ecf7ddb1bd6c1f18b66173357b402874246edc0ab96575a4456c77",
	"nsck-0000000000000009.ck": "7b8642ea1e16ec3bf305d432092f9f59804754d79fae848f752aae450da1e5bf",
}

func TestOnDiskGolden(t *testing.T) {
	dir := t.TempDir()
	writeGoldenNodeStore(t, dir)
	got := hashDir(t, dir)
	if len(got) != len(goldenFiles) {
		t.Errorf("run produced %d files, golden has %d: %v", len(got), len(goldenFiles), got)
	}
	for name, want := range goldenFiles {
		if got[name] != want {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], want)
		}
	}
}

// TestOpensParentDirectory opens testdata/parent-store — the scripted
// run's output as written by the binary of commit 56ba322, nsck metas
// included — serves every surviving node from it, extends it and reopens
// it; the metas are ignored and left where they were.
func TestOpensParentDirectory(t *testing.T) {
	const fixture = "testdata/parent-store"
	fixtureFiles := hashDir(t, fixture)
	if len(fixtureFiles) != len(goldenFiles)+len(parentSideFiles) {
		t.Fatalf("fixture holds %d files, want the segments and the parent's metas", len(fixtureFiles))
	}
	for name, want := range goldenFiles {
		if got := fixtureFiles[name]; got != want {
			t.Fatalf("fixture %s is not the golden run's file: %s", name, got)
		}
	}
	dir := t.TempDir()
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := testOpen(t, dir, goldenOpts())
	if got := s.Stats().TornBytes; got != 0 {
		t.Fatalf("repair discarded %d bytes of an intact directory", got)
	}
	live := 0
	for h := 1; h <= 9; h++ {
		for i := 0; i < 5 && (h < 9 || i < 2); i++ {
			p := goldenPayload(h, i)
			got, err := s.Get(cryptoutil.HashBytes(p))
			if h < 6 && i%2 == 1 { // dropped by the scripted compaction
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("node %d/%d: %v, want ErrNotFound", h, i, err)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, p) {
				t.Fatalf("node %d/%d: %q, %v", h, i, got, err)
			}
			live++
		}
	}
	if s.Len() != live {
		t.Fatalf("index holds %d records, want %d", s.Len(), live)
	}
	// The root the parent's newest meta named is the run's last node.
	if last := cryptoutil.HashBytes(goldenPayload(9, 1)); !s.Has(last) {
		t.Fatalf("the run's last root %s is not in the store", last.Short())
	}
	added := putNodes(t, s, 10, goldenPayload(10, 0), goldenPayload(10, 1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = testOpen(t, dir, goldenOpts())
	if s.Len() != live+2 || !s.Has(added[1]) {
		t.Fatalf("after extending: %d records, want %d", s.Len(), live+2)
	}
	after := hashDir(t, dir)
	for name, want := range parentSideFiles {
		if after[name] != want {
			t.Fatalf("parent-written %s: sha256 %q after open, extend and reopen, want it untouched", name, after[name])
		}
	}
}
