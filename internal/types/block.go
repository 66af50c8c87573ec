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
	r := bytes.NewReader(b)
	h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("types: %d trailing bytes after header", r.Len())
	}
	return h, nil
}

func readHeader(r *bytes.Reader) (*BlockHeader, error) {
	var h BlockHeader
	if _, err := io.ReadFull(r, h.ParentHash[:]); err != nil {
		return nil, fmt.Errorf("types: read parent hash: %w", err)
	}
	var err error
	if h.Height, err = readUint64(r); err != nil {
		return nil, err
	}
	t, err := readUint64(r)
	if err != nil {
		return nil, err
	}
	h.Time = int64(t)
	if h.Difficulty, err = readUint64(r); err != nil {
		return nil, err
	}
	if h.Nonce, err = readUint64(r); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, h.TxRoot[:]); err != nil {
		return nil, fmt.Errorf("types: read tx root: %w", err)
	}
	if _, err := io.ReadFull(r, h.StateRoot[:]); err != nil {
		return nil, fmt.Errorf("types: read state root: %w", err)
	}
	if _, err := io.ReadFull(r, h.Proposer[:]); err != nil {
		return nil, fmt.Errorf("types: read proposer: %w", err)
	}
	if h.Extra, err = readBytes(r); err != nil {
		return nil, err
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
		dst = tx.appendTo(dst, true)
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
	hb, err := readBytes(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return DecodeBlockHeader(hb)
}

// DecodeBlock parses a block from its canonical encoding.
func DecodeBlock(data []byte) (*Block, error) {
	r := bytes.NewReader(data)
	hb, err := readBytes(r)
	if err != nil {
		return nil, err
	}
	h, err := DecodeBlockHeader(hb)
	if err != nil {
		return nil, err
	}
	n, err := readUint64(r)
	if err != nil {
		return nil, err
	}
	if n > maxFieldLen {
		return nil, fmt.Errorf("%w: %d txs", ErrTooLarge, n)
	}
	b := &Block{Header: *h}
	if n > 0 {
		b.Txs = make([]*Transaction, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		tb, err := viewBytes(r, data)
		if err != nil {
			return nil, err
		}
		tx, err := DecodeTransaction(tb)
		if err != nil {
			return nil, fmt.Errorf("types: tx %d: %w", i, err)
		}
		b.Txs = append(b.Txs, tx)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("types: %d trailing bytes after block", r.Len())
	}
	return b, nil
}

// viewBytes is readBytes without the copy: the field r reads next, as a
// slice of data, the bytes r reads from.
func viewBytes(r *bytes.Reader, data []byte) ([]byte, error) {
	n, err := readLen(r)
	if err != nil {
		return nil, err
	}
	off := len(data) - r.Len()
	_, _ = r.Seek(int64(n), io.SeekCurrent) // cannot fail: readLen checked r holds n bytes
	return data[off : off+n], nil
}
