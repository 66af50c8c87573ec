package types

import (
	"sync/atomic"
	"testing"

	"dcsledger/internal/cryptoutil"
)

// BenchmarkVerify is the cost of the first verification of a decoded
// transfer: the memo is cleared before every call, so each one checks
// the signature.
func BenchmarkVerify(b *testing.B) {
	signed, _ := signedTransfer(b, "bench", 1)
	tx, err := DecodeTransaction(signed.Encode())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		atomic.StoreUint32(&tx.sigOK, 0)
		if err := tx.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeTransaction is the cost of decoding a signed transfer
// from its canonical encoding, its id memoized.
func BenchmarkDecodeTransaction(b *testing.B) {
	signed, _ := signedTransfer(b, "bench", 1)
	enc := signed.Encode()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTransaction(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeBlock is the cost of decoding a block of 256 signed
// transfers, every id memoized and no signature checked.
func BenchmarkDecodeBlock(b *testing.B) {
	blk := NewBlock(cryptoutil.ZeroHash, 1, 0, cryptoutil.ZeroAddress, signedTransfers(b, 256))
	blk.Header.Extra = []byte("seal")
	enc := blk.Encode()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBlock(enc); err != nil {
			b.Fatal(err)
		}
	}
}
