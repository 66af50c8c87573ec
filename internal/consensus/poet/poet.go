// Package poet implements Proof-of-Elapsed-Time consensus (Hyperledger
// Sawtooth, Section 5.4): every validator asks a trusted execution
// environment for a random wait time; the validator whose wait expires
// first proposes the block, and the enclave-signed wait certificate in
// the header proves the draw was honest.
//
// The paper's repro context has no Intel SGX, so the enclave is
// simulated (see DESIGN.md substitutions): a process-wide signing
// authority whose draws are deterministic in (parent, validator). The
// consensus-visible contract — trustworthy random waits, verifiable by
// anyone holding the enclave's public key — is preserved, and the
// statistical cheater detection of the PoET literature is provided by
// DetectCheaters.
package poet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"dcsledger/internal/consensus"
	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
	"dcsledger/internal/wire"
)

// ErrBadCertificate reports a forged or mismatched wait certificate.
var ErrBadCertificate = errors.New("poet: invalid wait certificate")

// CertCodecVersion tags the binary certificate encoding carried in
// Header.Extra; bump on layout change (this changes poet block hashes).
const CertCodecVersion = 2

// Certificate is an enclave-signed statement that a validator was
// assigned the given wait for blocks extending Parent. It is embedded
// in Header.Extra in the binary encoding below, so the encoding is
// consensus-critical: one certificate has exactly one byte form.
type Certificate struct {
	Validator cryptoutil.Address
	Parent    cryptoutil.Hash
	WaitNanos int64
	Sig       []byte
}

// Encode renders the certificate in its canonical binary form.
func (c Certificate) Encode() []byte {
	var w wire.Buffer
	w.U8(CertCodecVersion)
	w.Raw(c.Validator[:])
	w.Raw(c.Parent[:])
	w.U64(uint64(c.WaitNanos))
	// The signature takes its fixed width whatever its length, as a
	// transaction's does: cut, or zero-padded where it is short.
	var sig [cryptoutil.SigLen]byte
	copy(sig[:], c.Sig)
	w.Raw(sig[:])
	return w.Bytes()
}

// DecodeCertificate parses a canonical certificate encoding.
func DecodeCertificate(data []byte) (Certificate, error) {
	var c Certificate
	rd := wire.NewReader(data)
	if v := rd.U8(); rd.Err() == nil && v != CertCodecVersion {
		return c, fmt.Errorf("poet: unknown certificate version %d", v)
	}
	rd.Raw(c.Validator[:])
	rd.Raw(c.Parent[:])
	c.WaitNanos = int64(rd.U64())
	c.Sig = make([]byte, cryptoutil.SigLen)
	rd.Raw(c.Sig)
	return c, rd.Close()
}

func (c *Certificate) digest() cryptoutil.Hash {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(c.WaitNanos))
	return cryptoutil.HashBytes([]byte("poet/cert"), c.Validator[:], c.Parent[:], buf[:])
}

// Enclave is the simulated trusted execution environment: a signing
// authority whose wait draws are deterministic in (parent, validator),
// hence reproducible by any verifier.
type Enclave struct {
	key *cryptoutil.KeyPair
}

// NewEnclave derives the enclave identity from a seed (the "platform
// attestation key").
func NewEnclave(seed []byte) *Enclave {
	return &Enclave{key: cryptoutil.KeyFromSeed(append([]byte("poet/enclave/"), seed...))}
}

// PublicKey returns the enclave's attestation public key.
func (e *Enclave) PublicKey() []byte { return e.key.PublicKey() }

// DrawWait returns the deterministic exponential wait assigned to
// validator for blocks extending parent.
func (e *Enclave) DrawWait(parent cryptoutil.Hash, validator cryptoutil.Address, mean time.Duration) time.Duration {
	return drawWait(parent, validator, mean)
}

func drawWait(parent cryptoutil.Hash, validator cryptoutil.Address, mean time.Duration) time.Duration {
	h := cryptoutil.HashBytes([]byte("poet/wait"), parent[:], validator[:])
	// Map the first 8 bytes to (0,1], then invert the exponential CDF.
	u := float64(binary.BigEndian.Uint64(h[:8])>>11) / float64(1<<53)
	if u <= 0 {
		u = 1.0 / float64(1<<53)
	}
	w := -math.Log(u) * float64(mean)
	return time.Duration(w)
}

// IssueCertificate signs the wait assigned to validator on parent.
func (e *Enclave) IssueCertificate(parent cryptoutil.Hash, validator cryptoutil.Address, mean time.Duration) (Certificate, error) {
	cert := Certificate{
		Validator: validator,
		Parent:    parent,
		WaitNanos: int64(drawWait(parent, validator, mean)),
	}
	sig, err := e.key.Sign(cert.digest())
	if err != nil {
		return Certificate{}, fmt.Errorf("poet: %w", err)
	}
	cert.Sig = sig
	return cert, nil
}

// VerifyCertificate checks a certificate against the enclave public key
// and the deterministic draw.
func VerifyCertificate(enclavePub []byte, cert Certificate, mean time.Duration) error {
	if int64(drawWait(cert.Parent, cert.Validator, mean)) != cert.WaitNanos {
		return fmt.Errorf("%w: wait does not match enclave draw", ErrBadCertificate)
	}
	if err := cryptoutil.Verify(enclavePub, cert.digest(), cert.Sig); err != nil {
		return fmt.Errorf("%w: bad enclave signature: %w", ErrBadCertificate, err)
	}
	return nil
}

// Config parameterizes a PoET engine.
type Config struct {
	// MeanWait is the mean of the exponential wait distribution — the
	// expected block interval (per validator pool, the minimum of n
	// draws has mean MeanWait/n).
	MeanWait time.Duration
}

// Engine is a per-node PoET instance.
type Engine struct {
	cfg        Config
	enclave    *Enclave
	enclavePub []byte
}

var _ consensus.Engine = (*Engine)(nil)

// New creates a PoET engine bound to the (shared) enclave.
func New(cfg Config, enclave *Enclave) *Engine {
	if cfg.MeanWait <= 0 {
		cfg.MeanWait = 30 * time.Second
	}
	return &Engine{cfg: cfg, enclave: enclave, enclavePub: enclave.PublicKey()}
}

// Name implements consensus.Engine.
func (e *Engine) Name() string { return "poet" }

// Prepare implements consensus.Engine.
func (e *Engine) Prepare(hdr *types.BlockHeader, parent *types.Block) error {
	hdr.Difficulty = 1
	return nil
}

// Delay implements consensus.Engine: the enclave-drawn wait.
func (e *Engine) Delay(parent *types.Block, self cryptoutil.Address) (time.Duration, bool) {
	return drawWait(parent.Hash(), self, e.cfg.MeanWait), true
}

// Seal implements consensus.Engine: embeds the enclave certificate.
func (e *Engine) Seal(b *types.Block, parent *types.Block) error {
	cert, err := e.enclave.IssueCertificate(parent.Hash(), b.Header.Proposer, e.cfg.MeanWait)
	if err != nil {
		return err
	}
	b.Header.Extra = cert.Encode()
	return nil
}

// VerifySeal implements consensus.Engine: the certificate must be
// enclave-signed, match the deterministic draw, and the block timestamp
// must show the validator actually waited.
func (e *Engine) VerifySeal(b *types.Block, parent *types.Block) error {
	cert, err := DecodeCertificate(b.Header.Extra)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCertificate, err)
	}
	if cert.Validator != b.Header.Proposer {
		return fmt.Errorf("%w: certificate for %s, block by %s",
			ErrBadCertificate, cert.Validator.Short(), b.Header.Proposer.Short())
	}
	if cert.Parent != b.Header.ParentHash {
		return fmt.Errorf("%w: certificate for wrong parent", ErrBadCertificate)
	}
	if err := VerifyCertificate(e.enclavePub, cert, e.cfg.MeanWait); err != nil {
		return err
	}
	if b.Header.Time-parent.Header.Time < cert.WaitNanos {
		return fmt.Errorf("%w: block produced before wait elapsed", consensus.ErrBadTimestamp)
	}
	return nil
}

// DetectCheaters runs the PoET z-test: validators whose win count
// exceeds the expected share of totalBlocks by more than zThreshold
// standard deviations are flagged. validators is the pool size.
func DetectCheaters(wins map[cryptoutil.Address]int, totalBlocks, validators int, zThreshold float64) []cryptoutil.Address {
	if totalBlocks == 0 || validators == 0 {
		return nil
	}
	p := 1.0 / float64(validators)
	mean := float64(totalBlocks) * p
	std := math.Sqrt(float64(totalBlocks) * p * (1 - p))
	if std == 0 {
		return nil
	}
	var out []cryptoutil.Address
	for v, w := range wins {
		if z := (float64(w) - mean) / std; z > zThreshold {
			out = append(out, v)
		}
	}
	// Map iteration order is randomized per process; sort so every
	// replica reports the same cheater list in the same order.
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i][:], out[j][:]) < 0
	})
	return out
}
