package nodestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	// Ten nodes die, as under DCSNS001: what a sweep drops is no matter
	// of the format.
	if n, err := s.Compact(marker, 6); err != nil || n != 10 {
		t.Fatalf("Compact dropped %d, %v; want the 10 odd nodes below height 6", n, err)
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
// names, segment headers, batch frames of windowed records (including
// the ones compaction copies forward).
var goldenFiles = map[string]string{
	"ns-00000003.seg": "fdd88325a62970c4580971f9a508fa16530b5f9fa76d7a1721186a7cce6b6b74",
	"ns-00000004.seg": "fc7c9696bb99bb62b3265d41a48abc7ee50d14a3237eea26855cf3b36b4e7054",
	"ns-00000005.seg": "6ab509c86fefff0e71b5b3ca592a087c58d346921108250eac6965611ab55d9c",
}

// parentStoreFiles pins testdata/parent-store: the scripted run's output
// in legacy frames, as the commit that introduced DCSNS002 wrote it.
var parentStoreFiles = map[string]string{
	"ns-00000004.seg": "3a11ed725bdb282d840e6286e7751200e5d6aaf41d5acd4e220eae91f4a047f4",
	"ns-00000005.seg": "d46e831b963318ab59f5f4e07709254837f09fda352a6a4d9f81372aa4e2557f",
	"ns-00000006.seg": "dce9d208a7a8273c89386c717ea305cbce7a8a82ff8972f401036a6a5d8267fc",
	"ns-00000007.seg": "a6c4e4bc2a107688fbd8cde51e8cb694e822f5b8745ff3d9de32da8c267d04f1",
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

// openParentStore copies testdata/parent-store, checked against its
// hashes, into a fresh directory and opens it.
func openParentStore(t *testing.T) (*Store, string) {
	t.Helper()
	const fixture = "testdata/parent-store"
	fixtureFiles := hashDir(t, fixture)
	if len(fixtureFiles) != len(parentStoreFiles) {
		t.Fatalf("fixture holds %d files, want %d", len(fixtureFiles), len(parentStoreFiles))
	}
	for name, want := range parentStoreFiles {
		if got := fixtureFiles[name]; got != want {
			t.Fatalf("fixture %s is not the parent's file: %s", name, got)
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
	return s, dir
}

// parentNodes returns the payloads of the scripted run's nodes that its
// compaction kept, and those it dropped.
func parentNodes() (live, dropped [][]byte) {
	for h := 1; h <= 9; h++ {
		for i := 0; i < 5 && (h < 9 || i < 2); i++ {
			if h < 6 && i%2 == 1 {
				dropped = append(dropped, goldenPayload(h, i))
			} else {
				live = append(live, goldenPayload(h, i))
			}
		}
	}
	return live, dropped
}

// readsBack fails unless every one of nodes reads back from s, and every
// one of gone is ErrNotFound.
func readsBack(t *testing.T, s *Store, nodes, gone [][]byte) {
	t.Helper()
	for _, p := range nodes {
		if got, err := getRaw(s, cryptoutil.HashBytes(p)); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("node %.12s: %q, %v", p, got, err)
		}
	}
	for _, p := range gone {
		if _, err := getRaw(s, cryptoutil.HashBytes(p)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("node %.12s: %v, want ErrNotFound", p, err)
		}
	}
}

// TestOpensParentDirectory opens testdata/parent-store — the scripted
// run's output in the legacy frames the commit that introduced DCSNS002
// wrote — serves every surviving node from it, extends it with windowed
// records and reopens it.
func TestOpensParentDirectory(t *testing.T) {
	s, dir := openParentStore(t)
	live, dropped := parentNodes()
	readsBack(t, s, live, dropped)
	if s.Stats().Records != len(live) {
		t.Fatalf("index holds %d records, want %d", s.Stats().Records, len(live))
	}
	if last := cryptoutil.HashBytes(goldenPayload(9, 1)); !s.Has(last) {
		t.Fatalf("the run's last root %s is not in the store", last.Short())
	}
	for _, p := range live {
		if l, _ := s.ix.lookup(cryptoutil.HashBytes(p)); !l.legacy() {
			t.Fatalf("node %.12s of the fixture is not indexed as a legacy record", p)
		}
	}
	added := [][]byte{goldenPayload(10, 0), goldenPayload(10, 1), goldenPayload(10, 2)}
	for _, h := range putNodes(t, s, 10, added...) {
		if l, _ := s.ix.lookup(h); l.legacy() {
			t.Fatal("a record appended to a parent directory is not windowed")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = testOpen(t, dir, goldenOpts())
	if s.Stats().Records != len(live)+len(added) {
		t.Fatalf("after extending: %d records, want %d", s.Stats().Records, len(live)+len(added))
	}
	readsBack(t, s, append(live, added...), dropped)
}

// TestCompactsParentDirectory: a sweep over testdata/parent-store, once
// every segment of it is sealed, rewrites the legacy records it keeps as
// windowed ones, and every kept node still reads, before and after a
// reopen.
func TestCompactsParentDirectory(t *testing.T) {
	s, dir := openParentStore(t)
	live, dropped := parentNodes()
	var added [][]byte
	for h := 10; slices.Max(s.log.Segments()) == 7; h++ { // until the fixture's last segment is sealed
		p := goldenPayload(h, 0)
		if h > 20 {
			t.Fatal("ten batches did not seal the fixture's last segment")
		}
		added = append(added, p)
		putNodes(t, s, uint64(h), p)
	}
	// One node of each fixture segment dies, so that each is rewritten.
	m := NewMarker()
	dies := map[uint64]bool{}
	var kept [][]byte
	for _, p := range live {
		h := cryptoutil.HashBytes(p)
		if l, _ := s.ix.lookup(h); !dies[l.seg()] {
			dies[l.seg()] = true
			dropped = append(dropped, p)
			continue
		}
		m.Keep(h)
		kept = append(kept, p)
	}
	for _, p := range added {
		m.Keep(cryptoutil.HashBytes(p))
	}
	if n, err := s.Compact(m, 100); err != nil || n != len(dies) {
		t.Fatalf("Compact dropped %d, %v; want one record from each of %d segments", n, err, len(dies))
	}
	for _, p := range kept {
		if l, _ := s.ix.lookup(cryptoutil.HashBytes(p)); l.legacy() {
			t.Fatalf("node %.12s was kept as a legacy record", p)
		}
	}
	readsBack(t, s, append(kept, added...), dropped)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = testOpen(t, dir, goldenOpts())
	readsBack(t, s, append(kept, added...), dropped)
}

// TestRefusesV1Directory: a directory of DCSNS001 segments (testdata/
// v1-store holds the newest one the last commit of that format wrote) is
// refused with an error that names both magics, the directory and the
// remedy — and is not touched: to the scanner a foreign magic is damage
// at byte 0 of the newest segment, which repair would truncate away.
func TestRefusesV1Directory(t *testing.T) {
	const name = "ns-00000009.seg"
	v1, err := os.ReadFile(filepath.Join("testdata/v1-store", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, goldenOpts())
	if err == nil {
		t.Fatal("Open read a DCSNS001 directory")
	}
	for _, want := range []string{"DCSNS001", "DCSNS002", name, "remove " + dir} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not say %q", err, want)
		}
	}
	if after, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(after, v1) {
		t.Fatalf("the refused segment was modified (%v)", err)
	}
}
