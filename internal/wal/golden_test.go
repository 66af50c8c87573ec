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
	"dcsledger/internal/lz"
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
		SegmentSize:     512,
		CheckpointEvery: 1 << 30,
		Clock:           func() time.Time { return frozen },
	}
}

// writeGoldenStore is the scripted run: twelve journaled blocks, every
// fourth followed by a head record (which the open still admits and
// Replay skips); one checkpoint after the eighth.
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
		if i%4 == 3 {
			if err := s.LogHead(b.Hash()); err != nil {
				t.Fatalf("LogHead %d: %v", i, err)
			}
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
	"ckpt-0000000000000010.ck": "62a72c7671792f494a9e284a9f21841d4ba4d6fdc1259054823e6a57057aacb4",
	"wal/wal-00000001.seg":     "1eba221d665c73aca0040466c610f3914744491413f30a46911d9b944280b9c0",
	"wal/wal-00000002.seg":     "5a2b5ea9dbe9cc5d270432a33c9f202314de83927559a808b26aa5fbfe68a3b5",
	"wal/wal-00000003.seg":     "a1f401147a60ad65f295bcb801fedf4900de8259482e740de21f1ab7b7a17505",
	"wal/wal-00000004.seg":     "354ccc802b66f4e0fad49ce1f99cea8e1c74e003001d8088cef9d109037fca7b",
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
// are of a replaced format — DCSWAL01, before compact transactions,
// DCSWAL02, before the storage form, DCSWAL03, before windows bounded
// by bytes, or DCSWAL04, whose block records of type 3 are head switches
// too — is refused
// with an error naming the segment, its magic, this format's and the
// remedy, and nothing in it is touched.
func TestRefusesReplacedFormat(t *testing.T) {
	for _, magic := range []string{"DCSWAL01", "DCSWAL02", "DCSWAL03", "DCSWAL04"} {
		t.Run(magic, func(t *testing.T) {
			dir := t.TempDir()
			name := format.SegmentName(1)
			old := append([]byte(magic), seqExt(1)...)
			if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "wal", name), old, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := OpenStore(dir, StoreOptions{Fsync: seglog.SyncNever})
			if !errors.Is(err, seglog.ErrReplaced) {
				t.Fatalf("OpenStore of a %s directory = %v, want seglog.ErrReplaced", magic, err)
			}
			for _, want := range []string{magic, segMagic, name, "remove " + dir} {
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
		})
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
// lies wholly in a node store: the DCSCKPT4 layout with an empty
// snapshot — seq, height, head, state root — and nothing per account or
// of the block. It loads back as a checkpoint without a state.
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
	const name, want = "ckpt-0000000000000001.ck", "ba4559062ffae180724cdef75b82d70cf8b28b77213d27547b298e363f1d7dc4"
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	body, err := lz.Decode(nil, data[len(ckptMagic):len(data)-4], maxCheckpointLen, maxCheckpointLen)
	if got := hashTree(t, dir)[name]; got != want || err != nil || len(body) != ckptHeaderLen {
		t.Fatalf("%s: %d bytes inflating to %d (%v), sha256 %s, want %s", name, len(data), len(body), err, got, want)
	}

	s, rec := openStoreT(t, dir, goldenStoreOpts())
	ck := rec.Checkpoint
	if ck == nil || ck.State != nil || ck.StateRoot != root || ck.Head != b.Hash() {
		t.Fatalf("loaded checkpoint %+v", ck)
	}
	if got := s.CheckpointRoots(); len(got) != 1 || got[0] != root {
		t.Fatalf("CheckpointRoots after reopen = %v", got)
	}
}
