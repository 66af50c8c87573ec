// Package types defines the ledger's wire-level data structures — accounts,
// transactions, block headers, and blocks — together with their canonical
// deterministic encodings. Every hash in the system is computed over these
// encodings, so the encoding rules here are consensus-critical.
package types

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"dcsledger/internal/cryptoutil"
)

// TxKind distinguishes the transaction families carried by the ledger.
type TxKind uint8

const (
	// TxTransfer moves value between accounts (Blockchain 1.0).
	TxTransfer TxKind = iota + 1
	// TxDeploy creates a smart contract; Data holds the code (Blockchain 2.0).
	TxDeploy
	// TxInvoke calls a smart contract at To; Data holds the input.
	TxInvoke
	// TxCoinbase mints the block reward to the proposer. It is only valid
	// as the first transaction of a block and carries no signature.
	TxCoinbase
)

// String implements fmt.Stringer.
func (k TxKind) String() string {
	switch k {
	case TxTransfer:
		return "transfer"
	case TxDeploy:
		return "deploy"
	case TxInvoke:
		return "invoke"
	case TxCoinbase:
		return "coinbase"
	default:
		return fmt.Sprintf("TxKind(%d)", uint8(k))
	}
}

// Encoding and validation errors.
var (
	ErrBadSignature = errors.New("types: invalid transaction signature")
	ErrNoSignature  = errors.New("types: transaction is unsigned")
	ErrBadKind      = errors.New("types: unknown transaction kind")
	ErrFromMismatch = errors.New("types: sender does not match public key")
	ErrTooLarge     = errors.New("types: encoded field too large")
	ErrCostOverflow = errors.New("types: transaction cost overflows uint64")
	ErrGasLimit     = errors.New("types: gas limit over the cap")
)

// MaxGasLimit caps a transaction's gas limit: a transaction that offers
// more is invalid. The fee is flat, so nothing else bounds how long one
// invoke may run a block's execution; at the VM's few nanoseconds a gas
// unit this is milliseconds. It is also the budget of a constant call.
const MaxGasLimit = 1 << 20

// maxFieldLen bounds variable-length fields during decoding so a hostile
// peer cannot force huge allocations.
const maxFieldLen = 1 << 24

// Transaction is an account-model transaction. Fee is the total fee the
// sender offers; the block producer collects it (Section 2.4 incentives).
//
// From is not encoded: it is the address of PubKey, derived when a
// transaction is decoded and checked against the key by Sign and
// Verify when a caller built it. A coinbase has no sender (From is
// zero), no key and no signature.
//
// An instance is immutable once signed or decoded: its id and a
// successful verification are memoized on it, and a node shares one
// instance per transaction between its pool, its blocks and the
// goroutines that read them. To change a field, build a new transaction
// and sign it.
type Transaction struct {
	Kind     TxKind             `json:"kind"`
	From     cryptoutil.Address `json:"from"`
	To       cryptoutil.Address `json:"to"`
	Value    uint64             `json:"value"`
	Fee      uint64             `json:"fee"`
	Nonce    uint64             `json:"nonce"`
	GasLimit uint64             `json:"gasLimit"`
	Data     []byte             `json:"data,omitempty"`
	PubKey   []byte             `json:"pubKey,omitempty"`
	Sig      []byte             `json:"sig,omitempty"`

	// sigOK memoizes a successful signature verification (1 = verified),
	// accessed atomically so VerifyBatch workers and the sequential
	// apply path can share it. Sign resets the memo.
	sigOK uint32
	// id memoizes ID. Sign, SignDeterministic and DecodeTransaction set it
	// before the instance is shared, and nothing writes it after, so
	// readers need no synchronization. It stays zero on an instance that
	// was neither signed nor decoded (the coinbase a proposer builds),
	// whose ID is computed on every call.
	id cryptoutil.Hash
}

// Domain tags: a transaction's id is the SHA-256 of txIDTag followed by
// its canonical encoding; its signing digest, that of signingTag
// followed by the kind, From and the body (everything the encoding holds
// but the kind, the key and the signature).
const (
	signingTag = "dcsledger/tx"
	txIDTag    = "dcsledger/txid"
)

// bodyLen is the length of the canonical encoding before Data: the kind,
// To, value, fee, nonce and gas limit, and Data's length (big-endian u64s).
// Behind Data come the key and the signature, fixed-width, in every kind
// but the coinbase (docs/WIRE.md).
const bodyLen = 1 + cryptoutil.AddressSize + 5*8

// stackEncoding bounds the tag and encoding that digest and
// DecodeTransaction hash from a buffer on the stack: a signed transfer
// is about 170 bytes with its tag. A longer one (a deploy's code) is
// hashed all the same, from the heap.
const stackEncoding = 512

// NewTransfer builds an unsigned value transfer.
func NewTransfer(from, to cryptoutil.Address, value, fee, nonce uint64) *Transaction {
	return &Transaction{
		Kind:  TxTransfer,
		From:  from,
		To:    to,
		Value: value,
		Fee:   fee,
		Nonce: nonce,
	}
}

// NewCoinbase builds the block-reward transaction for a proposer.
func NewCoinbase(to cryptoutil.Address, reward uint64, height uint64) *Transaction {
	return &Transaction{
		Kind:  TxCoinbase,
		To:    to,
		Value: reward,
		Nonce: height, // makes each coinbase unique per height
	}
}

// SigningDigest returns the hash a sender signs: the kind, From and the
// body, not PubKey and Sig. From is in it so that a signature binds the
// address it debits.
func (tx *Transaction) SigningDigest() cryptoutil.Hash {
	var buf [stackEncoding]byte
	dst := append(append(buf[:0], signingTag...), byte(tx.Kind))
	return sha256.Sum256(tx.appendBody(append(dst, tx.From[:]...)))
}

// ID returns the transaction identifier: the hash of the full canonical
// encoding, including the key and the signature.
func (tx *Transaction) ID() cryptoutil.Hash {
	if tx.id != (cryptoutil.Hash{}) {
		return tx.id
	}
	return tx.hashID()
}

// hashID hashes txIDTag followed by the canonical encoding, encoded into
// a buffer on the stack.
func (tx *Transaction) hashID() cryptoutil.Hash {
	var buf [stackEncoding]byte
	return sha256.Sum256(tx.appendTo(append(buf[:0], txIDTag...)))
}

// Sign attaches the key's signature and public key to the transaction.
// The From address must already match the key.
func (tx *Transaction) Sign(k *cryptoutil.KeyPair) error { return tx.sign(k, k.Sign) }

// SignDeterministic is Sign with a derived (RFC 6979-style) nonce: the
// same key and transaction always produce byte-identical signatures,
// which keeps identically-seeded simulation runs bit-identical (block
// hashes commit to transaction signatures). Verification is unchanged.
func (tx *Transaction) SignDeterministic(k *cryptoutil.KeyPair) error {
	return tx.sign(k, k.SignDeterministic)
}

func (tx *Transaction) sign(k *cryptoutil.KeyPair, sign func(cryptoutil.Hash) ([]byte, error)) error {
	if tx.From != k.Address() {
		return ErrFromMismatch
	}
	sig, err := sign(tx.SigningDigest())
	if err != nil {
		return fmt.Errorf("sign tx: %w", err)
	}
	tx.PubKey = k.PublicKey()
	tx.Sig = sig
	atomic.StoreUint32(&tx.sigOK, 0) // new signature: drop any stale memo
	tx.id = tx.hashID()
	return nil
}

// Verify checks the structural validity and signature of the transaction:
// its kind, that its cost does not overflow, that its gas limit is at
// most MaxGasLimit, and its signature. Coinbase transactions are
// unsigned by design and always pass; their contextual validity (reward
// amount, position) is enforced at block validation.
//
// A successful verification is memoized, so re-verifying the same
// (immutable) transaction — e.g. sequentially applying a block whose
// signatures VerifyBatch already checked in parallel — is free. A
// signature that fails wraps ErrBadSignature and cryptoutil's reason
// (cryptoutil.ErrHighS, ErrSigRange, ErrBadPubKey, ErrBadSignature).
func (tx *Transaction) Verify() error {
	switch tx.Kind {
	case TxTransfer, TxDeploy, TxInvoke:
	case TxCoinbase:
		return nil
	default:
		return fmt.Errorf("%w: %d", ErrBadKind, tx.Kind)
	}
	if _, err := tx.Cost(); err != nil {
		return err
	}
	if tx.GasLimit > MaxGasLimit {
		return fmt.Errorf("%w: %d, cap %d", ErrGasLimit, tx.GasLimit, MaxGasLimit)
	}
	if atomic.LoadUint32(&tx.sigOK) == 1 {
		return nil
	}
	if len(tx.Sig) == 0 || len(tx.PubKey) == 0 {
		return ErrNoSignature
	}
	if cryptoutil.PubKeyToAddress(tx.PubKey) != tx.From {
		return ErrFromMismatch
	}
	if err := cryptoutil.Verify(tx.PubKey, tx.SigningDigest(), tx.Sig); err != nil {
		return fmt.Errorf("%w: %w", ErrBadSignature, err)
	}
	atomic.StoreUint32(&tx.sigOK, 1)
	return nil
}

// Cost returns the total balance the sender needs: value plus fee.
// The add is checked: wrapping would let a transaction with
// Value = 2^64-1, Fee = 1 report Cost 0, pass any balance check, and
// mint value from nothing when the wrapped debit is applied.
func (tx *Transaction) Cost() (uint64, error) {
	c := tx.Value + tx.Fee
	if c < tx.Value {
		return 0, fmt.Errorf("%w: value %d + fee %d", ErrCostOverflow, tx.Value, tx.Fee)
	}
	return c, nil
}

// Encode returns the full canonical encoding of the transaction.
func (tx *Transaction) Encode() []byte {
	return tx.appendTo(make([]byte, 0, tx.encodedLen()))
}

// DecodeTransaction parses a transaction from its canonical encoding,
// derives From from the key and memoizes the id. The key is not checked
// to be a point here (Verify does): a decode costs one SHA-256 for the
// sender and one for the id. The codec is canonical — a decoded
// transaction encodes back to b — so the id is the hash of b itself.
func DecodeTransaction(b []byte) (*Transaction, error) {
	if len(b) < bodyLen {
		return nil, fmt.Errorf("types: read transaction: %w", io.ErrUnexpectedEOF)
	}
	tx := &Transaction{Kind: TxKind(b[0])}
	p := b[1+copy(tx.To[:], b[1:]):]
	for i, f := range [...]*uint64{&tx.Value, &tx.Fee, &tx.Nonce, &tx.GasLimit} {
		*f = binary.BigEndian.Uint64(p[8*i:])
	}
	n := binary.BigEndian.Uint64(p[32:])
	if p = p[40:]; n > maxFieldLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if want := n + uint64(tx.authLen()); uint64(len(p)) != want {
		return nil, fmt.Errorf("types: %d bytes after a transaction's amounts, its data, key and signature take %d", len(p), want)
	}
	if n > 0 {
		tx.Data = bytes.Clone(p[:n])
	}
	if tx.Kind != TxCoinbase {
		auth := bytes.Clone(p[n:])
		tx.PubKey, tx.Sig = auth[:cryptoutil.PubKeyLen:cryptoutil.PubKeyLen], auth[cryptoutil.PubKeyLen:]
		tx.From = cryptoutil.PubKeyToAddress(tx.PubKey)
	}
	var buf [stackEncoding]byte
	tx.id = sha256.Sum256(append(append(buf[:0], txIDTag...), b...))
	return tx, nil
}

// encodedLen is the length of the full canonical encoding.
func (tx *Transaction) encodedLen() int { return bodyLen + len(tx.Data) + tx.authLen() }

// authLen is the length of the key and the signature in the encoding.
func (tx *Transaction) authLen() int {
	if tx.Kind == TxCoinbase {
		return 0
	}
	return cryptoutil.PubKeyLen + cryptoutil.SigLen
}

// appendTo appends the canonical encoding to dst. The key and the
// signature take their fixed widths whatever their length: zeros where
// a transaction is unsigned.
func (tx *Transaction) appendTo(dst []byte) []byte {
	dst = tx.appendBody(append(dst, byte(tx.Kind)))
	if tx.Kind != TxCoinbase {
		dst = appendFixed(dst, tx.PubKey, cryptoutil.PubKeyLen)
		dst = appendFixed(dst, tx.Sig, cryptoutil.SigLen)
	}
	return dst
}

// appendBody appends what the encoding and the signing digest both
// hold: To, the four amounts and Data.
func (tx *Transaction) appendBody(dst []byte) []byte {
	dst = append(dst, tx.To[:]...)
	dst = binary.BigEndian.AppendUint64(dst, tx.Value)
	dst = binary.BigEndian.AppendUint64(dst, tx.Fee)
	dst = binary.BigEndian.AppendUint64(dst, tx.Nonce)
	dst = binary.BigEndian.AppendUint64(dst, tx.GasLimit)
	return appendBytes(dst, tx.Data)
}

// appendFixed appends b cut or zero-padded to n bytes.
func appendFixed(dst, b []byte, n int) []byte {
	b = b[:min(len(b), n)]
	return append(append(dst, b...), make([]byte, n-len(b))...)
}

// TxHashes returns the IDs of a transaction slice, in order, for Merkle
// root computation.
func TxHashes(txs []*Transaction) []cryptoutil.Hash {
	out := make([]cryptoutil.Hash, len(txs))
	for i, tx := range txs {
		out[i] = tx.ID()
	}
	return out
}

// appendBytes appends b behind its length, 8 big-endian bytes.
func appendBytes(dst, b []byte) []byte {
	return append(binary.BigEndian.AppendUint64(dst, uint64(len(b))), b...)
}
