package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/lz"
	"dcsledger/internal/seglog"
	"dcsledger/internal/types"
)

// transferBlocks builds a chain of nBlocks blocks of perBlock signed
// transfers each, drawn the way benchmark/workload.go draws them: 256
// senders picked uniformly, the recipient a zipf(1.1) rank past the
// sender, values 1..100, fee 2, nonces counting up per sender, signed
// by the deterministic signer. The same arguments give the same bytes.
func transferBlocks(t testing.TB, nBlocks, perBlock int) []*types.Block {
	t.Helper()
	const senders = 256
	keys := make([]*cryptoutil.KeyPair, senders)
	for i := range keys {
		keys[i] = cryptoutil.KeyFromSeed([]byte(fmt.Sprintf("journal-test/sender/%d", i)))
	}
	rng := rand.New(rand.NewSource(1))
	ranks := rand.NewZipf(rng, 1.1, 1, senders-1)
	nonces := make([]uint64, senders)
	miner := cryptoutil.KeyFromSeed([]byte("journal-test/miner")).Address()
	parent := cryptoutil.HashBytes([]byte("genesis"))
	blocks := make([]*types.Block, nBlocks)
	for i := range blocks {
		txs := make([]*types.Transaction, perBlock)
		for k := range txs {
			s := rng.Intn(senders)
			r := (s + 1 + int(ranks.Uint64())) % senders
			if r == s {
				r = (r + 1) % senders
			}
			tx := types.NewTransfer(keys[s].Address(), keys[r].Address(), uint64(1+rng.Intn(100)), 2, nonces[s])
			nonces[s]++
			if err := tx.SignDeterministic(keys[s]); err != nil {
				t.Fatal(err)
			}
			txs[k] = tx
		}
		blocks[i] = types.NewBlock(parent, uint64(i+1), int64(1000+i), miner, txs)
		parent = blocks[i].Hash()
	}
	return blocks
}

// dirBytes is the total size of the files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestJournalBytesPerTransfer: what a transfer costs the journal. Forty
// blocks of 80 transfers (transfer-heavy's block) through a real store,
// head switches included, must leave the WAL directory under 119 bytes a
// transaction (about 106 measured); the canonical encoding verbatim costs
// about 168, each block compressed on its own about 126, and the
// encoding before compact keys and signatures, windowed, about 138.
func TestJournalBytesPerTransfer(t *testing.T) {
	const nBlocks, perBlock, limit = 40, 80, 119
	dir := t.TempDir()
	s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncNever})
	blocks := transferBlocks(t, nBlocks, perBlock)
	for _, b := range blocks {
		if err := s.LogBlock(b); err != nil {
			t.Fatal(err)
		}
		if err := s.LogHead(b.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	txs := float64(nBlocks * perBlock)
	stored := dirBytes(t, filepath.Join(dir, "wal"))
	t.Logf("%d transfers: raw block bytes %d (%.1f B/tx), WAL directory %d (%.1f B/tx), ratio %.3f",
		nBlocks*perBlock, st.BlockRawBytes, float64(st.BlockRawBytes)/txs, stored, float64(stored)/txs,
		float64(st.WAL.Bytes)/float64(st.BlockRawBytes))
	if got := float64(stored) / txs; got >= limit {
		t.Fatalf("the journal costs %.1f B per transfer, want under %d", got, limit)
	}
	// What was saved is still there: every block reads back.
	s2, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncNever})
	if rec.Blocks != nBlocks || rec.Head != blocks[nBlocks-1].Hash() || rec.Truncated != 0 {
		t.Fatalf("reopen: %d blocks, head %s, truncated %d", rec.Blocks, rec.Head.Short(), rec.Truncated)
	}
	for _, b := range blocks {
		got, err := s2.ReadBlock(b.Hash())
		if err != nil || !bytes.Equal(got.Encode(), b.Encode()) {
			t.Fatalf("ReadBlock h=%d: %v", b.Header.Height, err)
		}
	}
}

// uninflatable are RecBlock payloads of a real block that no longer
// inflate, each damaged in a way only the codec can notice: the frame
// around it is valid. Each starts a window (back 0).
func uninflatable(t *testing.T, b *types.Block) map[string][]byte {
	t.Helper()
	var enc lz.Encoder
	good := enc.Encode(nil, b.Encode())
	badElement := append([]byte(nil), good...)
	badElement[lastLiteral(t, good)] = 0xff
	return map[string][]byte{
		"bad element":              append([]byte{0}, badElement...),
		"wrong length":             append(append([]byte{0}, good...), 0x00, 0x00),
		"declared length over max": append([]byte{0, 0x81, 0x80, 0x80, 0x10}, good[2:]...), // 32 MiB + 1
	}
}

// lastLiteral walks the elements of an lz encoding to the last one and
// returns where its tag is: a literal's, since a block ends in a
// signature. That tag turned into 0xff, a long copy of 131 bytes, makes
// the encoding overrun its declared length.
func lastLiteral(t *testing.T, enc []byte) int {
	t.Helper()
	_, tag := binary.Uvarint(enc)
	for size := 0; ; tag += size {
		switch t := enc[tag]; {
		case t < 0x40:
			size = 2 + int(t)
		case t < 0x80:
			size = 2
		default:
			size = 3
		}
		if tag+size == len(enc) {
			break
		}
	}
	if enc[tag] >= 0x40 {
		t.Fatalf("the encoding ends in tag %#x, not in a literal", enc[tag])
	}
	return tag
}

// TestUninflatableRecordStopsCollection: a CRC-valid RecBlock whose
// header prefix does not inflate ends the journal at the open-time scan,
// counted in Truncated with everything behind it, like one that is not a
// block.
func TestUninflatableRecordStopsCollection(t *testing.T) {
	blocks := transferBlocks(t, 3, 4)
	for name, payload := range map[string][]byte{
		"declared length over max": uninflatable(t, blocks[1])["declared length over max"],
		"offset before the start":  {0, 0x20, 0x80, 0x01, 0x00},
		"no elements":              {0, 0x20},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
			if err := s.LogBlock(blocks[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WAL().Append(RecBlock, payload); err != nil {
				t.Fatal(err)
			}
			if err := s.LogBlock(blocks[2]); err != nil {
				t.Fatal(err)
			}
			s.Close()

			_, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncAlways})
			if got := journaledBlocks(t, rec); len(got) != 1 || got[0].Block.Hash() != blocks[0].Hash() {
				t.Fatalf("recovered %d blocks, want the 1 before the bad record", len(got))
			}
			if rec.Truncated != 2 {
				t.Fatalf("Truncated = %d, want 2 (bad record + dropped successor)", rec.Truncated)
			}
		})
	}
}

// TestReadBlockOfUninflatableRecord: a record that stops inflating after
// it was indexed is damage that names the block, never a block.
func TestReadBlockOfUninflatableRecord(t *testing.T) {
	blocks := transferBlocks(t, 2, 4)
	for name, payload := range uninflatable(t, blocks[1]) {
		t.Run(name, func(t *testing.T) {
			s, _ := openStoreT(t, t.TempDir(), StoreOptions{Fsync: seglog.SyncNever})
			if err := s.LogBlock(blocks[0]); err != nil {
				t.Fatal(err)
			}
			_, at, err := s.WAL().AppendAt(RecBlock, payload)
			if err != nil {
				t.Fatal(err)
			}
			h := blocks[1].Hash()
			s.blocks[h] = at
			b, err := s.ReadBlock(h)
			if b != nil || !errors.Is(err, seglog.ErrDamaged) || !strings.Contains(err.Error(), h.Short()) {
				t.Fatalf("ReadBlock = %v, %v; want no block and ErrDamaged naming %s", b, err, h.Short())
			}
			if _, err := s.ReadBlock(blocks[0].Hash()); err != nil {
				t.Fatalf("the record before it: %v", err)
			}
		})
	}
}
