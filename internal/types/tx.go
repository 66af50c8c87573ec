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
)

// maxFieldLen bounds variable-length fields during decoding so a hostile
// peer cannot force huge allocations.
const maxFieldLen = 1 << 24

// Transaction is an account-model transaction. Fee is the total fee the
// sender offers; the block producer collects it (Section 2.4 incentives).
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

// Domain tags: a transaction's signing digest and its id are the SHA-256
// of the tag followed by its canonical encoding, without and with PubKey
// and Sig.
const (
	signingTag = "dcsledger/tx"
	txIDTag    = "dcsledger/txid"
)

// stackEncoding bounds the tag and encoding that digest and
// DecodeTransaction hash from a buffer on the stack: a signed transfer
// is about 250 bytes with its tag. A longer one (a deploy's code) is
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

// SigningDigest returns the hash a sender signs: the canonical encoding of
// everything except PubKey and Sig.
func (tx *Transaction) SigningDigest() cryptoutil.Hash {
	return tx.digest(signingTag, false)
}

// ID returns the transaction identifier: the hash of the full canonical
// encoding, including the signature.
func (tx *Transaction) ID() cryptoutil.Hash {
	if tx.id != (cryptoutil.Hash{}) {
		return tx.id
	}
	return tx.digest(txIDTag, true)
}

// digest hashes tag followed by the canonical encoding, with or without
// PubKey and Sig (cryptoutil.HashBytes of the two), encoded into a
// buffer on the stack.
func (tx *Transaction) digest(tag string, includeSig bool) cryptoutil.Hash {
	var buf [stackEncoding]byte
	return sha256.Sum256(tx.appendTo(append(buf[:0], tag...), includeSig))
}

// Sign attaches the key's signature and public key to the transaction.
// The From address must already match the key.
func (tx *Transaction) Sign(k *cryptoutil.KeyPair) error {
	if tx.From != k.Address() {
		return ErrFromMismatch
	}
	sig, err := k.Sign(tx.SigningDigest())
	if err != nil {
		return fmt.Errorf("sign tx: %w", err)
	}
	tx.PubKey = k.PublicKey()
	tx.Sig = sig
	atomic.StoreUint32(&tx.sigOK, 0) // new signature: drop any stale memo
	tx.id = tx.digest(txIDTag, true)
	return nil
}

// SignDeterministic is Sign with a derived (RFC 6979-style) nonce: the
// same key and transaction always produce byte-identical signatures,
// which keeps identically-seeded simulation runs bit-identical (block
// hashes commit to transaction signatures). Verification is unchanged.
func (tx *Transaction) SignDeterministic(k *cryptoutil.KeyPair) error {
	if tx.From != k.Address() {
		return ErrFromMismatch
	}
	sig, err := k.SignDeterministic(tx.SigningDigest())
	if err != nil {
		return fmt.Errorf("sign tx: %w", err)
	}
	tx.PubKey = k.PublicKey()
	tx.Sig = sig
	atomic.StoreUint32(&tx.sigOK, 0)
	tx.id = tx.digest(txIDTag, true)
	return nil
}

// Verify checks the structural validity and signature of the transaction.
// Coinbase transactions are unsigned by design and always pass signature
// checks; their contextual validity (reward amount, position) is enforced
// at block validation.
//
// A successful verification is memoized, so re-verifying the same
// (immutable) transaction — e.g. sequentially applying a block whose
// signatures VerifyBatch already checked in parallel — is free.
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
	if atomic.LoadUint32(&tx.sigOK) == 1 {
		return nil
	}
	if len(tx.Sig) == 0 || len(tx.PubKey) == 0 {
		return ErrNoSignature
	}
	if cryptoutil.PubKeyToAddress(tx.PubKey) != tx.From {
		return ErrFromMismatch
	}
	if !cryptoutil.Verify(tx.PubKey, tx.SigningDigest(), tx.Sig) {
		return ErrBadSignature
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
	return tx.appendTo(make([]byte, 0, tx.encodedLen()), true)
}

// DecodeTransaction parses a transaction from its canonical encoding and
// memoizes its id. The codec is canonical — a decoded transaction
// encodes back to b — so the id is the hash of b itself.
func DecodeTransaction(b []byte) (*Transaction, error) {
	r := bytes.NewReader(b)
	tx, err := readTransaction(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("types: %d trailing bytes after transaction", r.Len())
	}
	var buf [stackEncoding]byte
	tx.id = sha256.Sum256(append(append(buf[:0], txIDTag...), b...))
	return tx, nil
}

// encodedLen is the length of the full canonical encoding.
func (tx *Transaction) encodedLen() int {
	return 1 + 2*cryptoutil.AddressSize + 4*8 + 3*8 + len(tx.Data) + len(tx.PubKey) + len(tx.Sig)
}

// appendTo appends the canonical encoding to dst, with or without PubKey
// and Sig.
func (tx *Transaction) appendTo(dst []byte, includeSig bool) []byte {
	dst = append(dst, byte(tx.Kind))
	dst = append(dst, tx.From[:]...)
	dst = append(dst, tx.To[:]...)
	dst = binary.BigEndian.AppendUint64(dst, tx.Value)
	dst = binary.BigEndian.AppendUint64(dst, tx.Fee)
	dst = binary.BigEndian.AppendUint64(dst, tx.Nonce)
	dst = binary.BigEndian.AppendUint64(dst, tx.GasLimit)
	dst = appendBytes(dst, tx.Data)
	if includeSig {
		dst = appendBytes(dst, tx.PubKey)
		dst = appendBytes(dst, tx.Sig)
	}
	return dst
}

func readTransaction(r *bytes.Reader) (*Transaction, error) {
	var tx Transaction
	kind, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("types: read kind: %w", err)
	}
	tx.Kind = TxKind(kind)
	if _, err := io.ReadFull(r, tx.From[:]); err != nil {
		return nil, fmt.Errorf("types: read from: %w", err)
	}
	if _, err := io.ReadFull(r, tx.To[:]); err != nil {
		return nil, fmt.Errorf("types: read to: %w", err)
	}
	for _, dst := range []*uint64{&tx.Value, &tx.Fee, &tx.Nonce, &tx.GasLimit} {
		if *dst, err = readUint64(r); err != nil {
			return nil, err
		}
	}
	if tx.Data, err = readBytes(r); err != nil {
		return nil, err
	}
	if tx.PubKey, err = readBytes(r); err != nil {
		return nil, err
	}
	if tx.Sig, err = readBytes(r); err != nil {
		return nil, err
	}
	return &tx, nil
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

func readUint64(r *bytes.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("types: read uint64: %w", err)
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

// appendBytes appends b behind its length, 8 big-endian bytes.
func appendBytes(dst, b []byte) []byte {
	return append(binary.BigEndian.AppendUint64(dst, uint64(len(b))), b...)
}

// readLen reads the length of a field: no more than maxFieldLen, nor
// than r holds.
func readLen(r *bytes.Reader) (int, error) {
	n, err := readUint64(r)
	if err != nil {
		return 0, err
	}
	if n > maxFieldLen {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if n > uint64(r.Len()) {
		return 0, fmt.Errorf("types: read bytes: %w", io.ErrUnexpectedEOF)
	}
	return int(n), nil
}

func readBytes(r *bytes.Reader) ([]byte, error) {
	n, err := readLen(r)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]byte, n)
	_, _ = r.Read(out) // reads all n: readLen checked r holds them
	return out, nil
}
