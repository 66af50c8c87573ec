package types

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/merkle"
)

func testBlock(t *testing.T, n int) *Block {
	t.Helper()
	txs := make([]*Transaction, 0, n+1)
	miner := cryptoutil.KeyFromSeed([]byte("miner")).Address()
	txs = append(txs, NewCoinbase(miner, 50, 1))
	for i := 0; i < n; i++ {
		tx, _ := signedTransfer(t, "sender", uint64(i))
		txs = append(txs, tx)
	}
	parent := cryptoutil.HashBytes([]byte("parent"))
	return NewBlock(parent, 1, 1000, miner, txs)
}

func TestNewBlockSetsTxRoot(t *testing.T) {
	b := testBlock(t, 4)
	if !b.VerifyTxRoot() {
		t.Fatal("NewBlock must set a valid tx root")
	}
}

// TestTxRootDetectsTampering tampers the encoding, the bytes an attacker
// controls, and decodes it: a transaction is immutable once signed.
func TestTxRootDetectsTampering(t *testing.T) {
	b := testBlock(t, 4)
	enc := b.Encode()
	// The low byte of tx 2's value: the 8th after its kind and to.
	enc[bytes.Index(enc, b.Txs[2].Encode())+1+cryptoutil.AddressSize+7] ^= 0x40
	tampered, err := DecodeBlock(enc)
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	if tampered.Txs[2].Value == b.Txs[2].Value {
		t.Fatal("the tamper missed the value")
	}
	if tampered.VerifyTxRoot() {
		t.Fatal("tampered body must fail tx-root verification")
	}
}

func TestHeaderHashChangesWithFields(t *testing.T) {
	b := testBlock(t, 1)
	base := b.Hash()
	mutations := []func(*BlockHeader){
		func(h *BlockHeader) { h.ParentHash[0] ^= 1 },
		func(h *BlockHeader) { h.Height++ },
		func(h *BlockHeader) { h.Time++ },
		func(h *BlockHeader) { h.Difficulty++ },
		func(h *BlockHeader) { h.Nonce++ },
		func(h *BlockHeader) { h.TxRoot[0] ^= 1 },
		func(h *BlockHeader) { h.StateRoot[0] ^= 1 },
		func(h *BlockHeader) { h.Proposer[0] ^= 1 },
		func(h *BlockHeader) { h.Extra = []byte{1} },
	}
	for i, mutate := range mutations {
		hdr := b.Header
		mutate(&hdr)
		if hdr.Hash() == base {
			t.Errorf("mutation %d did not change header hash", i)
		}
	}
}

// TestNonceOffset: the nonce is the 8 big-endian bytes at NonceOffset of
// the encoding, and nothing else there moves with it; the hash is over
// the tag and the encoding.
func TestNonceOffset(t *testing.T) {
	b := testBlock(t, 1)
	b.Header.Extra = []byte("consensus evidence")
	b.Header.Nonce = 0x0102030405060708
	enc := b.Header.Encode()
	if got := binary.BigEndian.Uint64(enc[NonceOffset:]); got != b.Header.Nonce {
		t.Fatalf("bytes at NonceOffset read %#x, nonce %#x", got, b.Header.Nonce)
	}
	hdr := b.Header
	hdr.Nonce++
	patched := bytes.Clone(enc)
	binary.BigEndian.PutUint64(patched[NonceOffset:], hdr.Nonce)
	if !bytes.Equal(patched, hdr.Encode()) || hdr.Hash() != cryptoutil.HashBytes([]byte(BlockHashTag), patched) {
		t.Fatal("patching the nonce in place is not encoding the header with that nonce")
	}
}

func TestHeaderEncodeDecodeRoundTrip(t *testing.T) {
	b := testBlock(t, 2)
	b.Header.Extra = []byte("consensus evidence")
	got, err := DecodeBlockHeader(b.Header.Encode())
	if err != nil {
		t.Fatalf("DecodeBlockHeader: %v", err)
	}
	if got.Hash() != b.Header.Hash() {
		t.Fatal("header round trip changed hash")
	}
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	b := testBlock(t, 5)
	got, err := DecodeBlock(b.Encode())
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	if got.Hash() != b.Hash() {
		t.Fatal("block round trip changed hash")
	}
	if len(got.Txs) != len(b.Txs) {
		t.Fatalf("lost transactions: %d vs %d", len(got.Txs), len(b.Txs))
	}
	if !got.VerifyTxRoot() {
		t.Fatal("round-tripped block must keep a valid tx root")
	}
}

func TestDecodeBlockErrors(t *testing.T) {
	b := testBlock(t, 1)
	enc := b.Encode()
	tests := []struct {
		name string
		give []byte
	}{
		{name: "empty", give: nil},
		{name: "truncated", give: enc[:len(enc)-3]},
		{name: "trailing", give: append(append([]byte{}, enc...), 1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeBlock(tt.give); err == nil {
				t.Fatal("expected decode error")
			}
		})
	}
}

func TestEmptyBlock(t *testing.T) {
	parent := cryptoutil.HashBytes([]byte("p"))
	b := NewBlock(parent, 3, 99, cryptoutil.ZeroAddress, nil)
	if !b.VerifyTxRoot() {
		t.Fatal("empty block must have valid (empty) tx root")
	}
	got, err := DecodeBlock(b.Encode())
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	if len(got.Txs) != 0 {
		t.Fatal("empty block round trip grew transactions")
	}
}

func TestTxProofSPV(t *testing.T) {
	// A light client holding only the header can verify tx inclusion —
	// the Simple Payment Verification flow of Section 2.2.
	b := testBlock(t, 8)
	for i := range b.Txs {
		p, err := b.TxProof(i)
		if err != nil {
			t.Fatalf("TxProof(%d): %v", i, err)
		}
		if !merkle.VerifyProof(b.Header.TxRoot, p) {
			t.Fatalf("SPV proof for tx %d should verify", i)
		}
	}
	// A transaction not in the block must not verify.
	foreign, _ := signedTransfer(t, "stranger", 0)
	p, err := b.TxProof(0)
	if err != nil {
		t.Fatalf("TxProof: %v", err)
	}
	p.Leaf = foreign.ID()
	if merkle.VerifyProof(b.Header.TxRoot, p) {
		t.Fatal("foreign transaction must not prove inclusion")
	}
}

func TestBlockSize(t *testing.T) {
	small := testBlock(t, 0)
	large := testBlock(t, 20)
	if small.Size() >= large.Size() {
		t.Fatal("block size must grow with tx count")
	}
}
