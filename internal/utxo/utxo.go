// Package utxo implements the unspent-transaction-output model of
// Blockchain 1.0 cryptocurrencies: transactions consume previous outputs
// and create new ones, exactly the Bitcoin-style ledger the paper's
// Figure 2 depicts. The package is used by the Bitcoin-like experiment
// configurations and by the mixer (Section 5.3), whose CoinJoin rounds
// are naturally many-input many-output UTXO transactions.
package utxo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"dcsledger/internal/cryptoutil"
)

// Model errors, matchable with errors.Is.
var (
	ErrMissingInput  = errors.New("utxo: input not in UTXO set")
	ErrBadSignature  = errors.New("utxo: invalid input signature")
	ErrWrongOwner    = errors.New("utxo: input not owned by signer")
	ErrValueOverflow = errors.New("utxo: outputs exceed inputs")
	ErrNoInputs      = errors.New("utxo: transaction has no inputs")
	ErrNoOutputs     = errors.New("utxo: transaction has no outputs")
	ErrDoubleSpend   = errors.New("utxo: input spent twice in one transaction")
)

// Outpoint identifies one output of a prior transaction.
type Outpoint struct {
	TxID  cryptoutil.Hash `json:"txId"`
	Index uint32          `json:"index"`
}

// TxOut is a spendable output: an amount locked to an owner address.
type TxOut struct {
	Value uint64             `json:"value"`
	Owner cryptoutil.Address `json:"owner"`
}

// TxIn spends a prior output; the signature covers the whole transaction
// body so inputs and outputs cannot be repackaged.
type TxIn struct {
	Prev   Outpoint `json:"prev"`
	PubKey []byte   `json:"pubKey,omitempty"`
	Sig    []byte   `json:"sig,omitempty"`
}

// Tx is a UTXO transaction. Minting (the coinbase case) is explicit via
// Set.Mint rather than a zero-input transaction.
type Tx struct {
	Ins  []TxIn  `json:"ins"`
	Outs []TxOut `json:"outs"`
}

// SigningDigest is the hash every input signs: all outpoints plus all
// outputs (SIGHASH_ALL semantics).
func (t *Tx) SigningDigest() cryptoutil.Hash {
	var buf bytes.Buffer
	for _, in := range t.Ins {
		buf.Write(in.Prev.TxID[:])
		var b4 [4]byte
		binary.BigEndian.PutUint32(b4[:], in.Prev.Index)
		buf.Write(b4[:])
	}
	for _, out := range t.Outs {
		var b8 [8]byte
		binary.BigEndian.PutUint64(b8[:], out.Value)
		buf.Write(b8[:])
		buf.Write(out.Owner[:])
	}
	return cryptoutil.HashBytes([]byte("utxo/tx"), buf.Bytes())
}

// ID returns the transaction identifier, committing signatures as well.
func (t *Tx) ID() cryptoutil.Hash {
	var buf bytes.Buffer
	d := t.SigningDigest()
	buf.Write(d[:])
	for _, in := range t.Ins {
		buf.Write(in.PubKey)
		buf.Write(in.Sig)
	}
	return cryptoutil.HashBytes([]byte("utxo/txid"), buf.Bytes())
}

// SignInput signs input i with key k.
func (t *Tx) SignInput(i int, k *cryptoutil.KeyPair) error {
	if i < 0 || i >= len(t.Ins) {
		return fmt.Errorf("utxo: input %d out of range", i)
	}
	sig, err := k.Sign(t.SigningDigest())
	if err != nil {
		return fmt.Errorf("sign input %d: %w", i, err)
	}
	t.Ins[i].PubKey = k.PublicKey()
	t.Ins[i].Sig = sig
	return nil
}

func (t *Tx) outputTotal() uint64 {
	var sum uint64
	for _, o := range t.Outs {
		sum += o.Value
	}
	return sum
}

// Set is the UTXO set: the spendable frontier of the chain.
type Set struct {
	utxos map[Outpoint]TxOut
}

// NewSet returns an empty UTXO set.
func NewSet() *Set {
	return &Set{utxos: make(map[Outpoint]TxOut)}
}

// Len returns the number of unspent outputs.
func (s *Set) Len() int { return len(s.utxos) }

// Get returns the output at op if it is unspent.
func (s *Set) Get(op Outpoint) (TxOut, bool) {
	o, ok := s.utxos[op]
	return o, ok
}

// BalanceOf sums the unspent value owned by addr.
func (s *Set) BalanceOf(addr cryptoutil.Address) uint64 {
	var sum uint64
	for _, o := range s.utxos {
		if o.Owner == addr {
			sum += o.Value
		}
	}
	return sum
}

// OutpointsOf lists the unspent outpoints owned by addr.
func (s *Set) OutpointsOf(addr cryptoutil.Address) []Outpoint {
	var out []Outpoint
	for op, o := range s.utxos {
		if o.Owner == addr {
			out = append(out, op)
		}
	}
	return out
}

// Mint inserts brand-new outputs (block subsidy) under a synthetic
// transaction ID derived from the given tag. Returns the outpoints.
func (s *Set) Mint(tag string, outs ...TxOut) []Outpoint {
	txid := cryptoutil.HashBytes([]byte("utxo/mint"), []byte(tag))
	ops := make([]Outpoint, len(outs))
	for i, o := range outs {
		op := Outpoint{TxID: txid, Index: uint32(i)}
		s.utxos[op] = o
		ops[i] = op
	}
	return ops
}

// Validate checks tx against the set without mutating it, returning the
// implied fee (inputs − outputs).
func (s *Set) Validate(tx *Tx) (uint64, error) {
	if len(tx.Ins) == 0 {
		return 0, ErrNoInputs
	}
	if len(tx.Outs) == 0 {
		return 0, ErrNoOutputs
	}
	digest := tx.SigningDigest()
	seen := make(map[Outpoint]bool, len(tx.Ins))
	var inTotal uint64
	for i, in := range tx.Ins {
		if seen[in.Prev] {
			return 0, fmt.Errorf("%w: input %d", ErrDoubleSpend, i)
		}
		seen[in.Prev] = true
		prev, ok := s.utxos[in.Prev]
		if !ok {
			return 0, fmt.Errorf("%w: input %d (%s:%d)", ErrMissingInput, i, in.Prev.TxID.Short(), in.Prev.Index)
		}
		if cryptoutil.PubKeyToAddress(in.PubKey) != prev.Owner {
			return 0, fmt.Errorf("%w: input %d", ErrWrongOwner, i)
		}
		if err := cryptoutil.Verify(in.PubKey, digest, in.Sig); err != nil {
			return 0, fmt.Errorf("%w: input %d: %w", ErrBadSignature, i, err)
		}
		inTotal += prev.Value
	}
	outTotal := tx.outputTotal()
	if outTotal > inTotal {
		return 0, fmt.Errorf("%w: in %d, out %d", ErrValueOverflow, inTotal, outTotal)
	}
	return inTotal - outTotal, nil
}

// Apply validates tx and, on success, spends its inputs and adds its
// outputs. Returns the fee.
func (s *Set) Apply(tx *Tx) (uint64, error) {
	fee, err := s.Validate(tx)
	if err != nil {
		return 0, err
	}
	for _, in := range tx.Ins {
		delete(s.utxos, in.Prev)
	}
	txid := tx.ID()
	for i, o := range tx.Outs {
		s.utxos[Outpoint{TxID: txid, Index: uint32(i)}] = o
	}
	return fee, nil
}

// Copy returns an independent copy of the set.
func (s *Set) Copy() *Set {
	ns := &Set{utxos: make(map[Outpoint]TxOut, len(s.utxos))}
	for op, o := range s.utxos {
		ns.utxos[op] = o
	}
	return ns
}
