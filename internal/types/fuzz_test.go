package types

import (
	"bytes"
	"testing"

	"dcsledger/internal/cryptoutil"
)

// FuzzBlockDecode throws arbitrary bytes at the block codec — the exact
// bytes an attacker controls on the wire and the bytes crash recovery
// reads back from the WAL. Invariants:
//
//  1. DecodeBlock never panics (garbled length fields must not force
//     huge allocations or slice panics);
//  2. any block that decodes re-encodes to the identical hash — the
//     codec is canonical, so a journaled block replays to the same
//     identity it was committed under;
//  3. hash, tx-root verification, and Size stay total on decoded
//     blocks;
//  4. decode then encode is the identity, and the id DecodeTransaction
//     memoizes is the hash of the re-encoding of an unmemoized copy.
func FuzzBlockDecode(f *testing.F) {
	miner := cryptoutil.KeyFromSeed([]byte("fuzz-miner")).Address()
	empty := NewBlock(cryptoutil.HashBytes([]byte("parent")), 1, 1000, miner, nil)
	f.Add(empty.Encode())
	cb := NewCoinbase(miner, 50, 2)
	full := NewBlock(empty.Hash(), 2, 2000, miner, []*Transaction{cb})
	f.Add(full.Encode())
	torn := full.Encode()
	f.Add(torn[:len(torn)/2])
	garbled := append([]byte(nil), full.Encode()...)
	garbled[len(garbled)/3] ^= 0xFF
	f.Add(garbled)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBlock(data)
		if err != nil {
			return
		}
		re := b.Encode()
		if !bytes.Equal(re, data) {
			t.Fatal("an accepted encoding does not encode back to itself")
		}
		if b.Size() != len(re) {
			t.Fatalf("Size %d, encoding %d bytes", b.Size(), len(re))
		}
		b2, err := DecodeBlock(re)
		if err != nil {
			t.Fatalf("re-encoded block does not decode: %v", err)
		}
		if b.Hash() != b2.Hash() {
			t.Fatalf("decode/encode not canonical: %s != %s", b.Hash().Short(), b2.Hash().Short())
		}
		if !bytes.Equal(re, b2.Encode()) {
			t.Fatal("second round trip changed the encoding")
		}
		_ = b.VerifyTxRoot() // must be total, not true
		_ = b.Size()
		for i := range b.Txs {
			tx2, err := DecodeTransaction(b.Txs[i].Encode())
			if err != nil {
				t.Fatalf("tx %d: re-encoded tx does not decode: %v", i, err)
			}
			if tx2.ID() != b.Txs[i].ID() {
				t.Fatalf("tx %d: id changed across round trip", i)
			}
			fresh := *b.Txs[i]
			fresh.id = cryptoutil.Hash{}
			if want := cryptoutil.HashBytes([]byte(txIDTag), fresh.Encode()); b.Txs[i].ID() != want || fresh.ID() != want {
				t.Fatalf("tx %d: memoized id %s, the re-encoding hashes to %s", i, b.Txs[i].ID().Short(), want.Short())
			}
		}
	})
}
