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

// TestJournalBytesPerTransfer: what a transfer costs the journal, each
// block journaled as a node journals it, with the head switch to it in
// its record, through a real store. Forty blocks of 80 transfers
// (transfer-heavy's block), under two windows, must leave the WAL
// directory under 88 bytes a transaction (about 84.2 measured; about 87.9
// with windows of 16 records and a head record a block); the
// canonical encoding verbatim costs about 168, each block compressed on
// its own about 126, the canonical encoding windowed, signatures and all,
// about 106, and the encoding before compact keys and signatures,
// windowed, about 138. Four hundred blocks of 20 transfers (the
// disk-state workload's block), five windows, must stay under 94 (about
// 89.8 measured; about 111.0 with windows of 16 records and a head record
// a block).
func TestJournalBytesPerTransfer(t *testing.T) {
	for _, c := range []struct {
		nBlocks, perBlock int
		limit             float64
	}{
		{40, 80, 88},
		{400, 20, 94},
	} {
		t.Run(fmt.Sprintf("%d transfers a block", c.perBlock), func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncNever})
			blocks := transferBlocks(t, c.nBlocks, c.perBlock)
			logBlocks(t, s, blocks)
			st := s.Stats()
			windows := 0
			for _, b := range blocks {
				if backOf(t, s, b.Hash()) == 0 {
					windows++
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			txs := float64(c.nBlocks * c.perBlock)
			stored := dirBytes(t, filepath.Join(dir, "wal"))
			t.Logf("%d transfers in %d windows: raw block bytes %d (%.1f B/tx), WAL directory %d (%.1f B/tx), ratio %.3f",
				c.nBlocks*c.perBlock, windows, st.BlockRawBytes, float64(st.BlockRawBytes)/txs, stored, float64(stored)/txs,
				float64(st.WAL.Bytes)/float64(st.BlockRawBytes))
			if got := float64(stored) / txs; got >= c.limit {
				t.Fatalf("the journal costs %.1f B per transfer, want under %.0f", got, c.limit)
			}
			// What was saved is still there: every block reads back.
			s2, rec := openStoreT(t, dir, StoreOptions{Fsync: seglog.SyncNever})
			if cut := s2.Stats().WAL.TornTruncated; rec.Blocks != c.nBlocks || rec.Head != blocks[c.nBlocks-1].Hash() || cut != 0 {
				t.Fatalf("reopen: %d blocks, head %s, %d bytes cut", rec.Blocks, rec.Head.Short(), cut)
			}
			readsBack(t, s2, blocks)
		})
	}
}

// TestSignaturesStayOutOfTheWindow: a journaled transfer block's
// signatures are its record's raw tail, 64 bytes for each signed
// transaction, and none of them is in the storage form the window
// inflates: they cannot crowd earlier records out of a copy's reach.
func TestSignaturesStayOutOfTheWindow(t *testing.T) {
	s, _ := openStoreT(t, t.TempDir(), StoreOptions{Fsync: seglog.SyncNever})
	blocks := transferBlocks(t, 20, 80)
	logBlocks(t, s, blocks)
	for _, b := range blocks {
		s.mu.Lock()
		at := s.blocks[b.Hash()]
		f, err := s.log.Reader(uint64(at.Seg))
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		form, sigs, err := readBlock(f, at)
		if err != nil {
			t.Fatal(err)
		}
		if len(sigs) != cryptoutil.SigLen*len(b.Txs) || !bytes.Equal(sigs, b.AppendSigs(nil)) {
			t.Fatalf("block %d: a tail of %d bytes, want its %d signatures", b.Header.Height, len(sigs), len(b.Txs))
		}
		for i, tx := range b.Txs {
			if bytes.Contains(form, tx.Sig) {
				t.Fatalf("block %d: tx %d's signature is in the inflated storage form", b.Header.Height, i)
			}
		}
	}
}

// uninflatable are RecBlock payloads of a real block that no longer
// inflate, each damaged in a way only the codec or the storage form can
// notice: the frame around it is valid. Each starts a window (back 0).
func uninflatable(t *testing.T, b *types.Block) map[string][]byte {
	t.Helper()
	var enc lz.Encoder
	good := enc.Encode(nil, b.AppendStored(nil))
	badElement := append([]byte(nil), good...)
	badElement[lastElement(t, good)] = 0xff
	payload := func(enc []byte, extra ...byte) []byte {
		return append(b.AppendSigs(append([]byte{0}, enc...)), extra...)
	}
	return map[string][]byte{
		"bad element":              payload(badElement),
		"wrong length":             payload(good, 0x00, 0x00),
		"declared length over max": payload(append([]byte{0x81, 0x80, 0x80, 0x10}, good[2:]...)), // 32 MiB + 1
	}
}

// lastElement walks the elements of an lz encoding to the last one and
// returns where its tag is. That tag turned into 0xff, a long copy of 131
// bytes, makes the encoding overrun its declared length, unless it was
// 0xff already.
func lastElement(t *testing.T, enc []byte) int {
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
	if enc[tag] == 0xff {
		t.Fatal("the encoding ends in a copy of 131 bytes")
	}
	return tag
}

// TestUninflatableRecordStopsCollection: a CRC-valid RecBlock whose
// header prefix does not inflate is damage to the open-time scan, which
// cuts the journal there with everything behind it, as for one that is
// not a block.
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
			seq, at, err := appendRec(s, RecBlock, payload)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.LogBlock(blocks[2]); err != nil {
				t.Fatal(err)
			}
			_, rec := reopenCut(t, s, dir, StoreOptions{Fsync: seglog.SyncAlways}, seq, at)
			if got := journaledBlocks(t, rec); len(got) != 1 || got[0].Block.Hash() != blocks[0].Hash() {
				t.Fatalf("recovered %d blocks, want the 1 before the bad record", len(got))
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
			_, at, err := appendRec(s, RecBlock, payload)
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
