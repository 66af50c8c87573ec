package types

import (
	"bytes"
	"crypto/elliptic"
	"encoding/json"
	"errors"
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"dcsledger/internal/cryptoutil"
)

func signedTransfer(t testing.TB, seed string, nonce uint64) (*Transaction, *cryptoutil.KeyPair) {
	t.Helper()
	k := cryptoutil.KeyFromSeed([]byte(seed))
	to := cryptoutil.KeyFromSeed([]byte(seed + "/to")).Address()
	tx := NewTransfer(k.Address(), to, 100, 2, nonce)
	if err := tx.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	return tx, k
}

func TestSignAndVerify(t *testing.T) {
	tx, _ := signedTransfer(t, "alice", 0)
	if err := tx.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsUnsigned(t *testing.T) {
	k := cryptoutil.KeyFromSeed([]byte("alice"))
	tx := NewTransfer(k.Address(), cryptoutil.ZeroAddress, 1, 0, 0)
	if err := tx.Verify(); !errors.Is(err, ErrNoSignature) {
		t.Fatalf("want ErrNoSignature, got %v", err)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Transaction)
		want   error
	}{
		{name: "value", mutate: func(tx *Transaction) { tx.Value++ }, want: ErrBadSignature},
		{name: "fee", mutate: func(tx *Transaction) { tx.Fee++ }, want: ErrBadSignature},
		{name: "nonce", mutate: func(tx *Transaction) { tx.Nonce++ }, want: ErrBadSignature},
		{name: "to", mutate: func(tx *Transaction) { tx.To[0] ^= 1 }, want: ErrBadSignature},
		{name: "data", mutate: func(tx *Transaction) { tx.Data = []byte{1} }, want: ErrBadSignature},
		{name: "from", mutate: func(tx *Transaction) { tx.From[0] ^= 1 }, want: ErrFromMismatch},
		{name: "kind", mutate: func(tx *Transaction) { tx.Kind = 99 }, want: ErrBadKind},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tx, _ := signedTransfer(t, "alice", 7)
			tt.mutate(tx)
			if err := tx.Verify(); !errors.Is(err, tt.want) {
				t.Fatalf("want %v, got %v", tt.want, err)
			}
		})
	}
}

func TestSignRejectsWrongSender(t *testing.T) {
	k := cryptoutil.KeyFromSeed([]byte("alice"))
	other := cryptoutil.KeyFromSeed([]byte("bob"))
	tx := NewTransfer(other.Address(), cryptoutil.ZeroAddress, 1, 0, 0)
	if err := tx.Sign(k); !errors.Is(err, ErrFromMismatch) {
		t.Fatalf("want ErrFromMismatch, got %v", err)
	}
}

func TestCoinbaseNeedsNoSignature(t *testing.T) {
	cb := NewCoinbase(cryptoutil.KeyFromSeed([]byte("miner")).Address(), 50, 12)
	if err := cb.Verify(); err != nil {
		t.Fatalf("coinbase Verify: %v", err)
	}
	if cb.Nonce != 12 {
		t.Fatal("coinbase nonce must carry the height")
	}
}

func TestTxEncodeDecodeRoundTrip(t *testing.T) {
	tx, _ := signedTransfer(t, "alice", 3)
	tx.Data = []byte("payload")
	tx.GasLimit = 9000
	// Re-sign after mutating fields included in the digest.
	k := cryptoutil.KeyFromSeed([]byte("alice"))
	if err := tx.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}

	got, err := DecodeTransaction(tx.Encode())
	if err != nil {
		t.Fatalf("DecodeTransaction: %v", err)
	}
	if got.ID() != tx.ID() {
		t.Fatal("round-tripped transaction changed identity")
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("round-tripped Verify: %v", err)
	}
	if !bytes.Equal(got.Data, tx.Data) || got.GasLimit != tx.GasLimit {
		t.Fatal("round trip lost fields")
	}
}

func TestDecodeTransactionErrors(t *testing.T) {
	tx, _ := signedTransfer(t, "alice", 0)
	enc := tx.Encode()
	tests := []struct {
		name string
		give []byte
	}{
		{name: "empty", give: nil},
		{name: "truncated", give: enc[:len(enc)/2]},
		{name: "trailing", give: append(append([]byte{}, enc...), 0xff)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeTransaction(tt.give); err == nil {
				t.Fatal("expected decode error")
			}
		})
	}
}

func TestDecodeRejectsHugeLength(t *testing.T) {
	// Craft an encoding whose Data length prefix claims 2^40 bytes.
	tx := NewTransfer(cryptoutil.ZeroAddress, cryptoutil.ZeroAddress, 0, 0, 0)
	enc := tx.Encode()
	// Data length field sits after kind(1)+to(20)+4*uint64(32).
	off := 1 + 20 + 32
	enc[off] = 0xff
	enc[off+1] = 0xff
	if _, err := DecodeTransaction(enc); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestIDChangesWithSignature(t *testing.T) {
	tx1, _ := signedTransfer(t, "alice", 0)
	tx2 := NewTransfer(tx1.From, tx1.To, tx1.Value, tx1.Fee, tx1.Nonce)
	if tx1.SigningDigest() != tx2.SigningDigest() {
		t.Fatal("signing digest must not depend on signature")
	}
	if tx1.ID() == tx2.ID() {
		t.Fatal("ID must depend on signature")
	}
}

func TestCost(t *testing.T) {
	tx := NewTransfer(cryptoutil.ZeroAddress, cryptoutil.ZeroAddress, 100, 7, 0)
	if c, err := tx.Cost(); err != nil || c != 107 {
		t.Fatalf("Cost = %d, %v, want 107", c, err)
	}
}

// TestCostOverflowRejected is the regression test for the uint64 mint
// vector: Value = 2^64-1, Fee = 1 wrapped Cost() to 0, passing any
// balance check. The checked add must reject it, and Verify must refuse
// such a transaction outright.
func TestCostOverflowRejected(t *testing.T) {
	k := cryptoutil.KeyFromSeed([]byte("overflow"))
	tx := NewTransfer(k.Address(), cryptoutil.ZeroAddress, math.MaxUint64, 1, 0)
	if _, err := tx.Cost(); !errors.Is(err, ErrCostOverflow) {
		t.Fatalf("Cost error = %v, want ErrCostOverflow", err)
	}
	if err := tx.Sign(k); err != nil {
		t.Fatal(err)
	}
	if err := tx.Verify(); !errors.Is(err, ErrCostOverflow) {
		t.Fatalf("Verify = %v, want ErrCostOverflow", err)
	}
	// Exactly at the boundary there is no overflow.
	edge := NewTransfer(k.Address(), cryptoutil.ZeroAddress, math.MaxUint64-1, 1, 0)
	if c, err := edge.Cost(); err != nil || c != math.MaxUint64 {
		t.Fatalf("edge Cost = %d, %v", c, err)
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		give TxKind
		want string
	}{
		{TxTransfer, "transfer"},
		{TxDeploy, "deploy"},
		{TxInvoke, "invoke"},
		{TxCoinbase, "coinbase"},
		{TxKind(42), "TxKind(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestPropertyEncodeDecodeRoundTrip(t *testing.T) {
	f := func(value, fee, nonce, gas uint64, data []byte) bool {
		tx := &Transaction{
			Kind:     TxTransfer,
			Value:    value,
			Fee:      fee,
			Nonce:    nonce,
			GasLimit: gas,
			Data:     data,
		}
		got, err := DecodeTransaction(tx.Encode())
		if err != nil {
			return false
		}
		return got.ID() == tx.ID()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTxCodecAllocs: the id of a signed or decoded transaction is a
// memo, and the digests of any other are hashed from the stack; an
// encoding is one exact-size allocation, a transaction's and a block's.
func TestTxCodecAllocs(t *testing.T) {
	signed, _ := signedTransfer(t, "allocs", 1)
	enc := signed.Encode()
	decoded, err := DecodeTransaction(enc)
	if err != nil {
		t.Fatal(err)
	}
	b := testBlock(t, 8)
	cb := b.Txs[0]
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"signed.ID", 0, func() { _ = signed.ID() }},
		{"decoded.ID", 0, func() { _ = decoded.ID() }},
		{"coinbase.ID", 0, func() { _ = cb.ID() }},
		{"SigningDigest", 0, func() { _ = decoded.SigningDigest() }},
		{"Header.Hash", 0, func() { _ = b.Hash() }},
		{"Transaction.Encode", 1, func() { _ = decoded.Encode() }},
		{"DecodeTransaction", 2, func() { _, _ = DecodeTransaction(enc) }},
		{"Block.Encode", 1, func() { _ = b.Encode() }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != c.want {
			t.Errorf("%s: %.0f allocations, want %.0f", c.name, got, c.want)
		}
	}
}

// TestEncodingCarriesEachFactOnce: a signed transfer encodes as its
// body, the 33-byte compressed key and the 64-byte signature, with no
// sender and no lengths for either; decoding derives the sender from
// the key. A coinbase carries neither key nor signature.
func TestEncodingCarriesEachFactOnce(t *testing.T) {
	tx, k := signedTransfer(t, "layout", 4)
	enc := tx.Encode()
	if want := bodyLen + cryptoutil.PubKeyLen + cryptoutil.SigLen; len(enc) != want {
		t.Fatalf("signed transfer encodes to %d bytes, want %d", len(enc), want)
	}
	if bytes.Contains(enc, tx.From[:]) {
		t.Fatal("the encoding carries the sender")
	}
	if !bytes.Equal(enc[bodyLen:bodyLen+cryptoutil.PubKeyLen], k.PublicKey()) || !bytes.Equal(enc[bodyLen+cryptoutil.PubKeyLen:], tx.Sig) {
		t.Fatal("key and signature are not the encoding's last 97 bytes")
	}
	got, err := DecodeTransaction(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != k.Address() {
		t.Fatalf("decoded sender %s, want %s", got.From.Short(), k.Address().Short())
	}
	cb := NewCoinbase(k.Address(), 50, 3)
	if n := len(cb.Encode()); n != bodyLen {
		t.Fatalf("coinbase encodes to %d bytes, want %d", n, bodyLen)
	}
	if got, err := DecodeTransaction(cb.Encode()); err != nil || got.From != cryptoutil.ZeroAddress || got.PubKey != nil || got.ID() != cb.ID() {
		t.Fatalf("coinbase round trip: %+v, %v", got, err)
	}
}

// TestHighSFailsVerify: s replaced by n-s still satisfies the ECDSA
// equation, and would be the same transfer under a new id; Verify
// refuses it.
func TestHighSFailsVerify(t *testing.T) {
	tx, _ := signedTransfer(t, "malleable", 2)
	sig := append([]byte(nil), tx.Sig...)
	s := new(big.Int).SetBytes(sig[32:])
	new(big.Int).Sub(elliptic.P256().Params().N, s).FillBytes(sig[32:])
	flipped := NewTransfer(tx.From, tx.To, tx.Value, tx.Fee, tx.Nonce)
	flipped.PubKey, flipped.Sig = tx.PubKey, sig
	if flipped.ID() == tx.ID() {
		t.Fatal("the flipped signature kept the id")
	}
	err := flipped.Verify()
	if !errors.Is(err, ErrBadSignature) || !errors.Is(err, cryptoutil.ErrHighS) {
		t.Fatalf("Verify of a high-s signature = %v, want ErrBadSignature and cryptoutil.ErrHighS", err)
	}
}

// TestBlockJSONRoundTrip pins what an HTTP client of /block relies on:
// a block of a signed transfer, a deploy and a coinbase, through
// json.Marshal and json.Unmarshal into a Block, keeps its hash, every
// id and every sender, and its transactions still verify.
func TestBlockJSONRoundTrip(t *testing.T) {
	k := cryptoutil.KeyFromSeed([]byte("json"))
	transfer, _ := signedTransfer(t, "json", 0)
	deploy := &Transaction{Kind: TxDeploy, From: k.Address(), Fee: 3, Nonce: 1, GasLimit: 5000, Data: []byte{0x60, 0x01}}
	if err := deploy.SignDeterministic(k); err != nil {
		t.Fatal(err)
	}
	b := NewBlock(cryptoutil.HashBytes([]byte("parent")), 9, 1234, k.Address(),
		[]*Transaction{NewCoinbase(k.Address(), 50, 9), transfer, deploy})
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var got Block
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Hash() != b.Hash() || !got.VerifyTxRoot() {
		t.Fatal("block hash or tx root moved through JSON")
	}
	for i, tx := range got.Txs {
		if tx.ID() != b.Txs[i].ID() || tx.From != b.Txs[i].From {
			t.Fatalf("tx %d: id or sender moved through JSON", i)
		}
		if err := tx.Verify(); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
}

// TestSignatureBindsTheSender: an ECDSA signature also verifies, over the
// same digest, under a second key, recovered from the other point whose
// x is r. The signing digest holds the sender, so that key's address
// cannot send the signed transfer as its own.
func TestSignatureBindsTheSender(t *testing.T) {
	tx, _ := signedTransfer(t, "bound", 1)
	c := elliptic.P256()
	p := c.Params().P
	r, s := new(big.Int).SetBytes(tx.Sig[:32]), new(big.Int).SetBytes(tx.Sig[32:])
	z := tx.SigningDigest()
	rInv := new(big.Int).ModInverse(r, c.Params().N)
	zx, zy := c.ScalarBaseMult(z[:])
	for _, parity := range []byte{2, 3} {
		rx, ry := elliptic.UnmarshalCompressed(c, append([]byte{parity}, tx.Sig[:32]...))
		if rx == nil {
			t.Fatal("r is not the x of a point")
		}
		sx, sy := c.ScalarMult(rx, ry, s.Bytes())
		qx, qy := c.Add(sx, sy, zx, new(big.Int).Sub(p, zy)) // s·R − z·G
		qx, qy = c.ScalarMult(qx, qy, rInv.Bytes())
		other := elliptic.MarshalCompressed(c, qx, qy)
		if bytes.Equal(other, tx.PubKey) {
			continue
		}
		if err := cryptoutil.Verify(other, z, tx.Sig); err != nil {
			t.Fatalf("the signature does not verify under the recovered key: %v", err)
		}
		forged := NewTransfer(cryptoutil.PubKeyToAddress(other), tx.To, tx.Value, tx.Fee, tx.Nonce)
		forged.PubKey, forged.Sig = other, tx.Sig
		if err := forged.Verify(); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("the transfer sent by the recovered key's address verifies: %v", err)
		}
		return
	}
	t.Fatal("no second key recovered")
}
