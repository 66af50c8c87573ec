package types

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/merkle"
)

// BlockHeader is the fixed-size commitment at the head of every block
// (Figure 2 of the paper: previous hash, nonce, tree root hash — plus the
// fields modern chains add: height, time, difficulty, state root,
// proposer, and a consensus-specific Extra payload).
type BlockHeader struct {
	ParentHash cryptoutil.Hash    `json:"parentHash"`
	Height     uint64             `json:"height"`
	Time       int64              `json:"time"` // unix nanoseconds, virtual in simulations
	Difficulty uint64             `json:"difficulty"`
	Nonce      uint64             `json:"nonce"`
	TxRoot     cryptoutil.Hash    `json:"txRoot"`
	StateRoot  cryptoutil.Hash    `json:"stateRoot"`
	Proposer   cryptoutil.Address `json:"proposer"`
	// Extra carries consensus-specific evidence: a PoS selection proof, a
	// PoET wait certificate, PBFT commit signatures, or a Bitcoin-NG
	// microblock signature.
	Extra []byte `json:"extra,omitempty"`
}

// BlockHashTag is the domain tag a header's encoding is hashed behind:
// the block hash, and the proof-of-work preimage, are the SHA-256 of the
// tag followed by Encode.
const BlockHashTag = "dcsledger/block"

// NonceOffset is where Encode puts the nonce: after the parent hash,
// height, time and difficulty, 8 big-endian bytes. A miner patches it
// in place instead of encoding the header once per attempt.
const NonceOffset = cryptoutil.HashSize + 3*8

// Encode returns the canonical encoding of the header. The proof-of-work
// puzzle and the header hash are both computed over this encoding.
func (h *BlockHeader) Encode() []byte {
	return h.appendTo(make([]byte, 0, h.encodedLen()))
}

// encodedLen is the length of the canonical encoding.
func (h *BlockHeader) encodedLen() int {
	return 3*cryptoutil.HashSize + cryptoutil.AddressSize + 5*8 + len(h.Extra)
}

// appendTo appends the canonical encoding to dst.
func (h *BlockHeader) appendTo(dst []byte) []byte {
	dst = append(dst, h.ParentHash[:]...)
	dst = binary.BigEndian.AppendUint64(dst, h.Height)
	dst = binary.BigEndian.AppendUint64(dst, uint64(h.Time))
	dst = binary.BigEndian.AppendUint64(dst, h.Difficulty)
	dst = binary.BigEndian.AppendUint64(dst, h.Nonce)
	dst = append(dst, h.TxRoot[:]...)
	dst = append(dst, h.StateRoot[:]...)
	dst = append(dst, h.Proposer[:]...)
	return appendBytes(dst, h.Extra)
}

// Hash returns the block identifier: the hash of the canonical header
// encoding, encoded into a buffer on the stack.
func (h *BlockHeader) Hash() cryptoutil.Hash {
	var buf [stackEncoding]byte
	return sha256.Sum256(h.appendTo(append(buf[:0], BlockHashTag...)))
}

// DecodeBlockHeader parses a header from its canonical encoding.
func DecodeBlockHeader(b []byte) (*BlockHeader, error) {
	if len(b) < NonceOffset+8+2*cryptoutil.HashSize+cryptoutil.AddressSize {
		return nil, fmt.Errorf("types: read block header: %w", io.ErrUnexpectedEOF)
	}
	var h BlockHeader
	p := b[copy(h.ParentHash[:], b):]
	h.Height, h.Time = binary.BigEndian.Uint64(p), int64(binary.BigEndian.Uint64(p[8:]))
	h.Difficulty, h.Nonce = binary.BigEndian.Uint64(p[16:]), binary.BigEndian.Uint64(p[24:])
	p = p[32+copy(h.TxRoot[:], p[32:]):]
	p = p[copy(h.StateRoot[:], p):]
	extra, rest, err := cutField(p[copy(h.Proposer[:], p):])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("types: %d trailing bytes after header", len(rest))
	}
	if len(extra) > 0 {
		h.Extra = bytes.Clone(extra)
	}
	return &h, nil
}

// Block bundles a header with its transaction body.
type Block struct {
	Header BlockHeader    `json:"header"`
	Txs    []*Transaction `json:"txs"`
}

// NewBlock assembles a block over the given transactions, filling in the
// transaction Merkle root. The caller sets consensus fields (difficulty,
// nonce, extra) and the state root.
func NewBlock(parent cryptoutil.Hash, height uint64, t int64, proposer cryptoutil.Address, txs []*Transaction) *Block {
	b := &Block{
		Header: BlockHeader{
			ParentHash: parent,
			Height:     height,
			Time:       t,
			Proposer:   proposer,
		},
		Txs: txs,
	}
	b.Header.TxRoot = b.ComputeTxRoot()
	return b
}

// Hash returns the block's identifier (the header hash).
func (b *Block) Hash() cryptoutil.Hash { return b.Header.Hash() }

// ComputeTxRoot returns the Merkle root over the block's transaction IDs.
func (b *Block) ComputeTxRoot() cryptoutil.Hash {
	return merkle.Root(TxHashes(b.Txs))
}

// VerifyTxRoot checks that the header's TxRoot commits the body.
func (b *Block) VerifyTxRoot() bool {
	return b.Header.TxRoot == b.ComputeTxRoot()
}

// TxProof produces the SPV inclusion proof for the i-th transaction.
func (b *Block) TxProof(i int) (merkle.Proof, error) {
	tree := merkle.NewTree(TxHashes(b.Txs))
	p, err := tree.Prove(i)
	if err != nil {
		return merkle.Proof{}, err
	}
	p.Leaf = b.Txs[i].ID()
	return p, nil
}

// Encode returns the canonical encoding of the whole block.
func (b *Block) Encode() []byte {
	return b.AppendEncode(make([]byte, 0, b.Size()))
}

// AppendEncode appends the canonical encoding of the whole block to dst
// and returns the extended slice.
func (b *Block) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(b.Header.encodedLen()))
	dst = b.Header.appendTo(dst)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(b.Txs)))
	for _, tx := range b.Txs {
		dst = binary.BigEndian.AppendUint64(dst, uint64(tx.encodedLen()))
		dst = tx.appendTo(dst)
	}
	return dst
}

// Size returns the encoded size of the block in bytes.
func (b *Block) Size() int {
	n := 8 + b.Header.encodedLen() + 8
	for _, tx := range b.Txs {
		n += 8 + tx.encodedLen()
	}
	return n
}

// PeekBlockHeader decodes only the header of an encoded block: enough to
// know the block's hash and height without paying for its transactions.
// It says nothing about whether the rest decodes.
func PeekBlockHeader(data []byte) (*BlockHeader, error) {
	hb, _, err := cutField(data)
	if err != nil {
		return nil, err
	}
	return DecodeBlockHeader(hb)
}

// DecodeBlock parses a block from its canonical encoding. Each
// transaction is decoded from a view of data, not a copy.
func DecodeBlock(data []byte) (*Block, error) {
	hb, p, err := cutField(data)
	if err != nil {
		return nil, err
	}
	h, err := DecodeBlockHeader(hb)
	if err != nil {
		return nil, err
	}
	if len(p) < 8 {
		return nil, fmt.Errorf("types: read transaction count: %w", io.ErrUnexpectedEOF)
	}
	n := binary.BigEndian.Uint64(p)
	if p = p[8:]; n > maxFieldLen {
		return nil, fmt.Errorf("%w: %d txs", ErrTooLarge, n)
	}
	b := &Block{Header: *h}
	if n > 0 {
		b.Txs = make([]*Transaction, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var tb []byte
		if tb, p, err = cutField(p); err != nil {
			return nil, err
		}
		tx, err := DecodeTransaction(tb)
		if err != nil {
			return nil, fmt.Errorf("types: tx %d: %w", i, err)
		}
		b.Txs = append(b.Txs, tx)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("types: %d trailing bytes after block", len(p))
	}
	return b, nil
}

// cutField splits b into the field at its front, behind its length (8
// big-endian bytes, no more than maxFieldLen), and what follows it.
func cutField(b []byte) (field, rest []byte, err error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("types: read length: %w", io.ErrUnexpectedEOF)
	}
	n := binary.BigEndian.Uint64(b)
	if b = b[8:]; n > maxFieldLen {
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("types: read bytes: %w", io.ErrUnexpectedEOF)
	}
	return b[:n], b[n:], nil
}
