package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
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

// copyTree copies every file under src to the same relative path under
// dst.
func copyTree(t *testing.T, dst, src string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
}

// parentStoreFiles are the files of testdata/parent-datadir: the scripted
// run as the binary of commit 56ba322 wrote it, before internal/seglog
// existed and with every block a RecBlock record. Builds up to PR 21
// wrote these same bytes.
var parentStoreFiles = map[string]string{
	"ckpt-0000000000000016.ck": "08c325e39b5679724e8981000fb555dcb19e2016377ff31878013b69c7aa9473",
	"wal/wal-00000001.seg":     "7343e52502da5db6c256230983fc66405e07a0bcb93a3282b0276ba81fed5017",
	"wal/wal-00000002.seg":     "985ed4403647e6eb7fe102f76b0e0ab3a1258947a0ad63d801edc3045ac67dfd",
	"wal/wal-00000003.seg":     "b169cb021be8ad7c73a83eb6b18e887e7e430c9c5d39c4b6cda31a143041448d",
	"wal/wal-00000004.seg":     "125ffa39a6aaa85af235d51657ed3329e2eb641321d68c15374ffbc13805190a",
	"wal/wal-00000005.seg":     "7d98b7e399c7968b97ef52d9232cbc394b64df39b041c0a23e124385426be351",
	"wal/wal-00000006.seg":     "9dbda327d22c602b351c106b4e3a87a6d4fe53778c9a1848d5208ae021f6385a",
}

// blockzStoreFiles are the files of testdata/blockz-datadir: the
// directory above extended with three blocks of twenty transfers and
// their head switches by the binary of commit ae10bb3, the last to
// journal every block as a RecBlockZ record.
var blockzStoreFiles = map[string]string{
	"ckpt-0000000000000016.ck": "08c325e39b5679724e8981000fb555dcb19e2016377ff31878013b69c7aa9473",
	"wal/wal-00000001.seg":     "7343e52502da5db6c256230983fc66405e07a0bcb93a3282b0276ba81fed5017",
	"wal/wal-00000002.seg":     "985ed4403647e6eb7fe102f76b0e0ab3a1258947a0ad63d801edc3045ac67dfd",
	"wal/wal-00000003.seg":     "b169cb021be8ad7c73a83eb6b18e887e7e430c9c5d39c4b6cda31a143041448d",
	"wal/wal-00000004.seg":     "125ffa39a6aaa85af235d51657ed3329e2eb641321d68c15374ffbc13805190a",
	"wal/wal-00000005.seg":     "7d98b7e399c7968b97ef52d9232cbc394b64df39b041c0a23e124385426be351",
	"wal/wal-00000006.seg":     "9dbda327d22c602b351c106b4e3a87a6d4fe53778c9a1848d5208ae021f6385a",
	"wal/wal-00000007.seg":     "9619befc330394610ed7734912dd2c73e1be1977c5656188703240a27bb57a6d",
	"wal/wal-00000008.seg":     "02e0f7664f1c9525459e3789784518746921af0af409ccc237f3caa43ba2734a",
	"wal/wal-00000009.seg":     "fe20b399ac49022a9e6ab4bb0a6cdd146e5ffe27713ac99d6b98adf5514ba7c4",
	"wal/wal-00000010.seg":     "725011075214310c89e965e871365a67f386712bed37335824c9b49a62d054ff",
	"wal/wal-00000011.seg":     "a294bebed2ed5a773c779cb4faeb85e537f0596836c2830d03bdf40872051a18",
	"wal/wal-00000012.seg":     "5eab8006fea0b745503bb10957b28765ba527facdc03ecfdfbaab3c311559e4d",
}

// checkFixture fails unless dir holds exactly the files want pins.
func checkFixture(t *testing.T, dir string, want map[string]string) {
	t.Helper()
	got := hashTree(t, dir)
	if len(got) != len(want) {
		t.Fatalf("fixture %s holds %d files, want %d", dir, len(got), len(want))
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Fatalf("fixture %s is not the file it was written as: %s", name, got[name])
		}
	}
}

// goldenStoreFiles pins every byte the DurableStore puts on disk — file
// names, segment headers, frames with their RecBlockW payloads (the codec
// is deterministic), the checkpoint, which is the parent's byte for byte.
var goldenStoreFiles = map[string]string{
	"ckpt-0000000000000016.ck": "08c325e39b5679724e8981000fb555dcb19e2016377ff31878013b69c7aa9473",
	"wal/wal-00000001.seg":     "e54a0b643b460dc73265265d416c94a65762d1bcfe905938df44ac330dbfe3c7",
	"wal/wal-00000002.seg":     "36424a8c3810932b6b54e9c8a835b2c86e136f6f0805d6b64a1302082b71e3cf",
	"wal/wal-00000003.seg":     "39dc88f6658bff33e55a79b7a8e68a2962142a5fce865bf089eae496af26dc39",
	"wal/wal-00000004.seg":     "48330ad7e5e6b35f077a9316b2af82f257d3885c1d15d39595a13d927b8a05a7",
	"wal/wal-00000005.seg":     "55b449faef0db303954ab4080d98d8847aa00646257b108893090977397addcb",
	"wal/wal-00000006.seg":     "9e3f370e6af73d016d41d422716984509cb36fa12fe2190b5b24333120f52757",
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

// TestOpensParentDirectory opens testdata/parent-datadir — the scripted
// run's output as written by the binary of commit 56ba322 — recovers
// it, extends it and reopens it.
func TestOpensParentDirectory(t *testing.T) {
	const fixture = "testdata/parent-datadir"
	checkFixture(t, fixture, parentStoreFiles)
	dir := t.TempDir()
	copyTree(t, dir, fixture)
	blocks := testBlocks(15)
	s, rec := openStoreT(t, dir, goldenStoreOpts())
	if rec.Blocks != 12 || rec.Head != blocks[11].Hash() {
		t.Fatalf("recovered %d blocks, head %s; want 12, %s", rec.Blocks, rec.Head.Short(), blocks[11].Hash().Short())
	}
	for i, rb := range journaledBlocks(t, rec) {
		if rb.Block.Hash() != blocks[i].Hash() || rb.Seq != uint64(2*i+1) {
			t.Fatalf("block %d: hash %s seq %d", i, rb.Block.Hash().Short(), rb.Seq)
		}
	}
	if ck := rec.Checkpoint; ck == nil || ck.Height != 8 || ck.Seq != 16 || ck.Head != blocks[7].Hash() {
		t.Fatalf("checkpoint %+v, want height 8 seq 16", ck)
	}
	if got := s.WAL().Stats().TornTruncated; got != 0 {
		t.Fatalf("repair discarded %d bytes of an intact directory", got)
	}
	for _, b := range blocks[12:] {
		if err := s.LogBlock(b); err != nil {
			t.Fatalf("extend: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec = openStoreT(t, dir, goldenStoreOpts())
	if got := journaledBlocks(t, rec); len(got) != 15 || got[14].Seq != 27 {
		t.Fatalf("after extending: %d blocks, last seq %d; want 15, 27", len(got), got[len(got)-1].Seq)
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
	const name, want = "ckpt-0000000000000001.ck", "0da70070a275aee92dea04a54907cefec9c86fbad07ebd4cd76ef5f21f82fddb"
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
