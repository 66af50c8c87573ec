package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
	"dcsledger/internal/seglog"
	"dcsledger/internal/state"
)

// goldenStoreOpts is the fixed configuration of the scripted run: a
// frozen clock (so the interval policy never decides differently) and a
// segment size small enough that twelve block records rotate the log
// several times.
func goldenStoreOpts() StoreOptions {
	frozen := time.Unix(1_700_000_000, 0)
	return StoreOptions{
		Fsync:           seglog.SyncInterval,
		FsyncEvery:      time.Second,
		SegmentSize:     512,
		CheckpointEvery: 1 << 30,
		Clock:           func() time.Time { return frozen },
	}
}

// writeGoldenStore is the scripted run: twelve journaled blocks with
// their head switches, one checkpoint after the eighth.
func writeGoldenStore(t *testing.T, dir string) {
	t.Helper()
	s, _, err := OpenStore(dir, goldenStoreOpts())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	st := state.New()
	st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("alice"))), 1000)
	st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("bob"))), 7)
	root := st.Commit()
	for i, b := range testBlocks(12) {
		if err := s.LogBlock(b); err != nil {
			t.Fatalf("LogBlock %d: %v", i, err)
		}
		if err := s.LogHead(b.Hash()); err != nil {
			t.Fatalf("LogHead %d: %v", i, err)
		}
		if i == 7 {
			if err := s.Checkpoint(b, root, st); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// hashTree returns the SHA-256 of every regular file under dir, keyed
// by slash-separated relative path.
func hashTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		out[filepath.ToSlash(rel)] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatalf("hash %s: %v", dir, err)
	}
	return out
}

// goldenStoreFiles pins every byte the DurableStore puts on disk — file
// names, segment headers, frames with their RecBlock payloads (the codec
// is deterministic), and the checkpoint.
var goldenStoreFiles = map[string]string{
	"ckpt-0000000000000016.ck": "4e1b23b13d7025076cb23d5e27018b7bc61df8b70ee08d3ebeeb6f8bf3af2dae",
	"wal/wal-00000001.seg":     "2f669b81a2fbcd80a8e9b174b655f1cee5dff2fbb83a58de386919abccaac12f",
	"wal/wal-00000002.seg":     "99656ea6d4e5e15c3883536dd4928372e3c2242ac203118d15561c2969fd8651",
	"wal/wal-00000003.seg":     "46376bb0dd017223c27e1f48062266eba24e45babcff5140dfc71182a077c88b",
	"wal/wal-00000004.seg":     "574f75bf7565bef7f16ed56f7fc63f4a9589722f31eb356fbbe2f98524c7c20d",
	"wal/wal-00000005.seg":     "2637d87d04577fddfaaf562bad9100552feef3bdf0997a5300fa9e3a41adde81",
	"wal/wal-00000006.seg":     "e314340afac7332e17c141f222f57be0949917279090523d9531eaa003e914bd",
}

func TestOnDiskGolden(t *testing.T) {
	dir := t.TempDir()
	writeGoldenStore(t, dir)
	got := hashTree(t, dir)
	if len(got) != len(goldenStoreFiles) {
		t.Errorf("run produced %d files, golden has %d: %v", len(got), len(goldenStoreFiles), got)
	}
	for name, want := range goldenStoreFiles {
		if got[name] != want {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], want)
		}
	}
}

// TestRefusesReplacedFormat: a data directory whose journal segments
// are DCSWAL01, the format before compact transactions, is refused with
// an error naming the segment, its magic, this format's and the remedy,
// and nothing in it is touched.
func TestRefusesReplacedFormat(t *testing.T) {
	dir := t.TempDir()
	name := format.SegmentName(1)
	old := append([]byte("DCSWAL01"), seqExt(1)...)
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal", name), old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenStore(dir, StoreOptions{Fsync: seglog.SyncNever})
	if !errors.Is(err, seglog.ErrReplaced) {
		t.Fatalf("OpenStore of a DCSWAL01 directory = %v, want seglog.ErrReplaced", err)
	}
	for _, want := range []string{"DCSWAL01", segMagic, name, "remove " + dir} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not say %q", err, want)
		}
	}
	if after, err := os.ReadFile(filepath.Join(dir, "wal", name)); err != nil || !bytes.Equal(after, old) {
		t.Fatalf("the refused segment was modified (%v)", err)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "wal")); len(entries) != 1 {
		t.Fatalf("the refused journal holds %d files, want it untouched", len(entries))
	}
}

// mapStore is a node store in a map: what a state's trie is flushed to
// and loaded back over.
type mapStore map[cryptoutil.Hash][]byte

func (m mapStore) Put(h cryptoutil.Hash, enc []byte) error {
	m[h] = append([]byte(nil), enc...)
	return nil
}

func (m mapStore) Has(h cryptoutil.Hash) bool { _, ok := m[h]; return ok }

func (m mapStore) Node(h cryptoutil.Hash, decode func(cryptoutil.Hash, []byte) (any, int, error)) (any, error) {
	enc, ok := m[h]
	if !ok {
		return nil, mpt.ErrMissingNode
	}
	v, _, err := decode(h, enc)
	return v, err
}

// TestSnapshotlessCheckpointGolden pins the checkpoint of a state that
// lies wholly in a node store: the DCSCKPT2 layout with an empty
// snapshot section — seq, height, head, state root, the head block — and
// nothing per account. It loads back as a checkpoint without a state; a
// block that does not carry the recorded root is refused.
func TestSnapshotlessCheckpointGolden(t *testing.T) {
	st := state.New()
	st.Credit(cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("alice"))), 1000)
	c := cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("contract")))
	st.SetCode(c, []byte("native:notary"))
	st.SetStorage(c, []byte("k"), []byte("v"))
	store := make(mapStore)
	root, err := st.AccountTrie().Commit(store)
	if err != nil {
		t.Fatal(err)
	}
	if !st.AdoptTrie(mpt.Load(root, 2, store)) || !st.Stored() {
		t.Fatal("the flushed state does not count as stored")
	}
	b := testBlocks(1)[0]
	b.Header.StateRoot = root

	dir := t.TempDir()
	s, _ := openStoreT(t, dir, goldenStoreOpts())
	if err := s.LogBlock(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(b, root, st); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := s.CheckpointRoots(); len(got) != 1 || got[0] != root {
		t.Fatalf("CheckpointRoots = %v", got)
	}
	s.Close()
	const name, want = "ckpt-0000000000000001.ck", "1309ce475572af93bea0855ab6ad1a11ad42d9411fcc15c2db0187b132456b59"
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if got := hashTree(t, dir)[name]; got != want || len(data) != 8+8+8+32+32+4+4+len(b.Encode())+4 {
		t.Fatalf("%s: %d bytes, sha256 %s, want %s", name, len(data), got, want)
	}

	s, rec := openStoreT(t, dir, goldenStoreOpts())
	ck := rec.Checkpoint
	if ck == nil || ck.State != nil || ck.StateRoot != root || ck.Head != b.Hash() || ck.Block.Hash() != b.Hash() {
		t.Fatalf("loaded checkpoint %+v", ck)
	}
	if got := s.CheckpointRoots(); len(got) != 1 || got[0] != root {
		t.Fatalf("CheckpointRoots after reopen = %v", got)
	}
	// The same file naming a root its block does not carry: worthless.
	other := testBlocks(2)[1]
	if err := s.LogBlock(other); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(other, root, st); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, rec = openStoreT(t, dir, goldenStoreOpts())
	if ck := rec.Checkpoint; ck == nil || ck.Head != b.Hash() || ck.Older != nil {
		t.Fatalf("a checkpoint whose block lacks the recorded root was loaded: %+v", ck)
	}
}
