package types

import (
	"bytes"
	"crypto/elliptic"
	"encoding/binary"
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

// FuzzTxDecode throws arbitrary bytes at the transaction codec, whose
// key and signature are fixed-width and whose sender is derived, not
// read. Invariants:
//
//  1. DecodeTransaction never panics;
//  2. a decoded transaction encodes back to its input byte for byte,
//     and its memoized id is the hash of that input;
//  3. its sender is the address of its key (zero for a coinbase);
//  4. Verify never panics, whatever the key and the signature hold,
//     and a verified transaction verifies again.
func FuzzTxDecode(f *testing.F) {
	k := cryptoutil.KeyFromSeed([]byte("fuzz-sender"))
	tx := NewTransfer(k.Address(), cryptoutil.ZeroAddress, 7, 1, 0)
	if err := tx.SignDeterministic(k); err != nil {
		f.Fatal(err)
	}
	signed := tx.Encode()
	f.Add(signed)
	f.Add(NewCoinbase(k.Address(), 50, 1).Encode())
	deploy := &Transaction{Kind: TxDeploy, From: k.Address(), GasLimit: 100, Data: []byte{1, 2, 3}}
	if err := deploy.SignDeterministic(k); err != nil {
		f.Fatal(err)
	}
	f.Add(deploy.Encode())
	key := len(signed) - cryptoutil.SigLen - cryptoutil.PubKeyLen
	sig := len(signed) - cryptoutil.SigLen
	with := func(at int, b ...byte) []byte {
		out := append([]byte(nil), signed...)
		copy(out[at:], b)
		return out
	}
	for _, prefix := range []byte{0x00, 0x04, 0x05} {
		f.Add(with(key, prefix))
	}
	params := elliptic.P256().Params()
	f.Add(with(key+1, params.P.Bytes()...)) // x = p
	for x := byte(1); ; x++ {               // an x with no square root
		pub := make([]byte, cryptoutil.PubKeyLen)
		pub[0], pub[len(pub)-1] = 2, x
		if px, _ := elliptic.UnmarshalCompressed(elliptic.P256(), pub); px == nil {
			f.Add(with(key, pub...))
			break
		}
	}
	f.Add(with(sig, make([]byte, cryptoutil.SigLen/2)...)) // r = 0
	f.Add(with(sig+cryptoutil.SigLen/2, params.N.Bytes()...))
	f.Add(signed[:len(signed)-1])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tx, err := DecodeTransaction(data)
		if err != nil {
			return
		}
		if !bytes.Equal(tx.Encode(), data) {
			t.Fatal("a decoded transaction does not encode back to its input")
		}
		if want := cryptoutil.HashBytes([]byte(txIDTag), data); tx.ID() != want {
			t.Fatalf("memoized id %s, the input hashes to %s", tx.ID().Short(), want.Short())
		}
		switch {
		case tx.Kind == TxCoinbase && (tx.From != cryptoutil.ZeroAddress || tx.PubKey != nil || tx.Sig != nil):
			t.Fatal("a coinbase decoded with a sender, a key or a signature")
		case tx.Kind != TxCoinbase && tx.From != cryptoutil.PubKeyToAddress(tx.PubKey):
			t.Fatal("the sender is not the address of the key")
		}
		if tx.Verify() == nil && tx.Verify() != nil {
			t.Fatal("a verified transaction failed to verify again")
		}
	})
}

// FuzzStoredBlock throws arbitrary bytes at the storage form, the block
// encoding a journal compresses, as a form and a signature tail.
// Invariants:
//
//  1. a canonical encoding (form, when DecodeBlock takes it) goes to
//     the storage form and back to itself byte for byte;
//  2. DecodeStoredBlock never panics, and a block it decodes stores to
//     exactly the form and the tail it came from, and encodes to the
//     canonical bytes they spell.
func FuzzStoredBlock(f *testing.F) {
	k := cryptoutil.KeyFromSeed([]byte("fuzz-stored"))
	transfer := NewTransfer(k.Address(), cryptoutil.ZeroAddress, 300, 2, 0)
	deploy := &Transaction{Kind: TxDeploy, From: k.Address(), Nonce: 1, GasLimit: 1 << 20, Data: []byte{1, 2, 3}}
	for _, tx := range []*Transaction{transfer, deploy} {
		if err := tx.SignDeterministic(k); err != nil {
			f.Fatal(err)
		}
	}
	parent := cryptoutil.HashBytes([]byte("parent"))
	coinbase := NewBlock(parent, 1, 1000, k.Address(), []*Transaction{NewCoinbase(k.Address(), 50, 1)})
	signed := NewBlock(parent, 2, 2000, k.Address(), []*Transaction{NewCoinbase(k.Address(), 50, 2), transfer, deploy})
	form, sigs := signed.AppendStored(nil), signed.AppendSigs(nil)
	f.Add(coinbase.AppendStored(nil), []byte{}) // a coinbase-only block: an empty tail
	f.Add(form, sigs)
	f.Add(form, sigs[:len(sigs)-1])                                 // a tail one byte short
	f.Add(form, append(append([]byte(nil), sigs...), sigs[:64]...)) // one signature too many
	cb := coinbase.AppendStored(nil)
	count := 8 + int(binary.BigEndian.Uint64(cb))                                                    // where the transaction count is
	f.Add(append(append(append([]byte(nil), cb[:count]...), 0x81, 0x00), cb[count+1:]...), []byte{}) // count 1 in two bytes
	f.Add(signed.Encode(), []byte{})
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, form, sigs []byte) {
		if b, err := DecodeBlock(form); err == nil {
			raw, err := appendCanonical(nil, b.AppendStored(nil), b.AppendSigs(nil))
			if err != nil || !bytes.Equal(raw, form) {
				t.Fatalf("canonical -> storage -> canonical: %v", err)
			}
		}
		b, err := DecodeStoredBlock(form, sigs)
		if err != nil {
			return
		}
		if !bytes.Equal(b.AppendStored(nil), form) || !bytes.Equal(b.AppendSigs(nil), sigs) {
			t.Fatal("a decoded storage form does not store back to itself")
		}
		if raw, err := appendCanonical(nil, form, sigs); err != nil || !bytes.Equal(b.Encode(), raw) {
			t.Fatalf("the block does not encode to the canonical bytes its storage form spells: %v", err)
		}
	})
}
