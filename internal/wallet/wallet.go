// Package wallet implements client-side key management, transaction
// construction, and the Simple Payment Verification light client of
// Section 2.2: a client that stores only block headers and verifies
// transaction inclusion with Merkle proofs instead of holding the full
// ledger.
package wallet

import (
	"errors"
	"fmt"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/merkle"
	"dcsledger/internal/store"
	"dcsledger/internal/types"
)

// SPV errors, matchable with errors.Is.
var (
	ErrBrokenHeaderChain = errors.New("wallet: header does not extend the chain")
	ErrUnknownHeader     = errors.New("wallet: header not in light chain")
	ErrBadProof          = errors.New("wallet: Merkle proof does not verify")
	ErrTxNotFound        = errors.New("wallet: transaction not on the main chain")
)

// Wallet holds a key pair and builds signed transactions.
type Wallet struct {
	key   *cryptoutil.KeyPair
	nonce uint64
}

// New creates a wallet around an existing key.
func New(key *cryptoutil.KeyPair) *Wallet { return &Wallet{key: key} }

// FromSeed derives a deterministic wallet (simulations and tests).
func FromSeed(seed string) *Wallet {
	return New(cryptoutil.KeyFromSeed([]byte(seed)))
}

// Address returns the wallet's account address.
func (w *Wallet) Address() cryptoutil.Address { return w.key.Address() }

// Key exposes the underlying key pair.
func (w *Wallet) Key() *cryptoutil.KeyPair { return w.key }

// SetNonce aligns the wallet's local nonce counter with chain state.
func (w *Wallet) SetNonce(n uint64) { w.nonce = n }

// NextNonce returns and consumes the next nonce.
func (w *Wallet) NextNonce() uint64 {
	n := w.nonce
	w.nonce++
	return n
}

// Transfer builds and signs a value transfer using the wallet's nonce
// counter.
func (w *Wallet) Transfer(to cryptoutil.Address, value, fee uint64) (*types.Transaction, error) {
	tx := types.NewTransfer(w.Address(), to, value, fee, w.NextNonce())
	if err := tx.Sign(w.key); err != nil {
		return nil, fmt.Errorf("wallet: %w", err)
	}
	return tx, nil
}

// Deploy builds and signs a contract deployment.
func (w *Wallet) Deploy(code []byte, value, fee, gasLimit uint64) (*types.Transaction, error) {
	tx := &types.Transaction{
		Kind: types.TxDeploy, From: w.Address(), Value: value, Fee: fee,
		Nonce: w.NextNonce(), GasLimit: gasLimit, Data: code,
	}
	if err := tx.Sign(w.key); err != nil {
		return nil, fmt.Errorf("wallet: %w", err)
	}
	return tx, nil
}

// Invoke builds and signs a contract invocation.
func (w *Wallet) Invoke(to cryptoutil.Address, input []byte, value, fee, gasLimit uint64) (*types.Transaction, error) {
	tx := &types.Transaction{
		Kind: types.TxInvoke, From: w.Address(), To: to, Value: value, Fee: fee,
		Nonce: w.NextNonce(), GasLimit: gasLimit, Data: input,
	}
	if err := tx.Sign(w.key); err != nil {
		return nil, fmt.Errorf("wallet: %w", err)
	}
	return tx, nil
}

// SPVProof bundles everything a light client needs to check that a
// transaction is committed: the enclosing header's height and the
// Merkle authentication path.
type SPVProof struct {
	Height uint64          `json:"height"`
	TxID   cryptoutil.Hash `json:"txId"`
	Proof  merkle.Proof    `json:"proof"`
}

// Size returns the proof's byte size (the E11 metric), header included.
func (p SPVProof) Size() int {
	return p.Proof.Size() + cryptoutil.HashSize + 16
}

// ProveTx builds an SPV proof for a committed transaction from a full
// node's chain view. ErrTxNotFound means the main chain does not hold the
// transaction; a block body the node could not read back is its own error.
func ProveTx(chain *store.Chain, txID cryptoutil.Hash) (SPVProof, error) {
	blockHash, idx, ok, err := chain.FindTx(txID)
	if err != nil {
		return SPVProof{}, fmt.Errorf("wallet: locate %s: %w", txID.Short(), err)
	}
	if !ok {
		return SPVProof{}, fmt.Errorf("%w: %s", ErrTxNotFound, txID.Short())
	}
	b, err := chain.Tree().Block(blockHash)
	if err != nil {
		return SPVProof{}, fmt.Errorf("wallet: read block %s of %s: %w", blockHash.Short(), txID.Short(), err)
	}
	proof, err := b.TxProof(idx)
	if err != nil {
		return SPVProof{}, fmt.Errorf("wallet: %w", err)
	}
	return SPVProof{Height: b.Header.Height, TxID: txID, Proof: proof}, nil
}

// SPVClient is the header-only light client. Headers are appended as
// the full nodes advertise them; VerifyTx then needs only an SPVProof.
type SPVClient struct {
	headers []types.BlockHeader
	// CheckSeal optionally verifies each header's proof evidence (e.g.
	// pow.CheckHeader) before acceptance.
	CheckSeal func(*types.BlockHeader) error
}

// NewSPVClient creates a light client rooted at the genesis header.
func NewSPVClient(genesis types.BlockHeader) *SPVClient {
	return &SPVClient{headers: []types.BlockHeader{genesis}}
}

// Height returns the light chain height.
func (c *SPVClient) Height() uint64 { return uint64(len(c.headers) - 1) }

// StorageBytes reports the client's storage footprint — headers only,
// the SPV selling point E11 quantifies.
func (c *SPVClient) StorageBytes() int {
	total := 0
	for i := range c.headers {
		total += len(c.headers[i].Encode())
	}
	return total
}

// AddHeaders appends main-chain headers, verifying linkage (and seal
// evidence if configured). Headers already known are skipped.
func (c *SPVClient) AddHeaders(hs []types.BlockHeader) error {
	for _, h := range hs {
		if h.Height <= c.Height() {
			continue
		}
		tip := c.headers[len(c.headers)-1]
		if h.Height != tip.Height+1 || h.ParentHash != tip.Hash() {
			return fmt.Errorf("%w: height %d", ErrBrokenHeaderChain, h.Height)
		}
		if c.CheckSeal != nil {
			if err := c.CheckSeal(&h); err != nil {
				return fmt.Errorf("wallet: header %d: %w", h.Height, err)
			}
		}
		c.headers = append(c.headers, h)
	}
	return nil
}

// HeaderAt returns the header at a height.
func (c *SPVClient) HeaderAt(height uint64) (types.BlockHeader, bool) {
	if height >= uint64(len(c.headers)) {
		return types.BlockHeader{}, false
	}
	return c.headers[height], true
}

// VerifyTx checks an SPV proof against the light chain and returns the
// transaction's confirmation count (trust-by-depth).
func (c *SPVClient) VerifyTx(p SPVProof) (uint64, error) {
	hdr, ok := c.HeaderAt(p.Height)
	if !ok {
		return 0, fmt.Errorf("%w: height %d", ErrUnknownHeader, p.Height)
	}
	proof := p.Proof
	proof.Leaf = p.TxID
	if !merkle.VerifyProof(hdr.TxRoot, proof) {
		return 0, ErrBadProof
	}
	return c.Height() - p.Height + 1, nil
}
