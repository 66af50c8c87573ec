// Package cryptoutil provides the cryptographic primitives used throughout
// the ledger: SHA-256 hashing, ECDSA P-256 key pairs, signatures, and
// addresses. It is the lowest layer of the stack; every other package that
// needs a hash or a signature imports it.
package cryptoutil

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// HashSize is the size of a Hash in bytes.
const HashSize = 32

// AddressSize is the size of an Address in bytes.
const AddressSize = 20

// Hash is a SHA-256 digest identifying blocks, transactions, and states.
type Hash [HashSize]byte

// ZeroHash is the all-zero hash, used as the parent of the genesis block.
var ZeroHash Hash

// HashBytes returns the SHA-256 digest of the concatenation of the given
// byte slices.
func HashBytes(parts ...[]byte) Hash {
	h := sha256.New()
	for _, p := range parts {
		// sha256's Write is documented never to fail; the discard is
		// explicit so errcheckhot can see it was considered.
		_, _ = h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// HashUint64 hashes an 8-byte big-endian encoding of v together with a
// domain tag, producing a deterministic derived hash.
func HashUint64(tag string, v uint64) Hash {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return HashBytes([]byte(tag), buf[:])
}

// Bytes returns the hash as a byte slice.
func (h Hash) Bytes() []byte { return h[:] }

// Hex returns the full lowercase hex encoding of the hash.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// Short returns an abbreviated hex form suitable for logs.
func (h Hash) Short() string { return hex.EncodeToString(h[:4]) }

// String implements fmt.Stringer.
func (h Hash) String() string { return h.Hex() }

// IsZero reports whether the hash is the zero value.
func (h Hash) IsZero() bool { return h == ZeroHash }

// MarshalText encodes the hash as hex (used by encoding/json).
func (h Hash) MarshalText() ([]byte, error) {
	return []byte(h.Hex()), nil
}

// UnmarshalText decodes a hex hash (used by encoding/json).
func (h *Hash) UnmarshalText(b []byte) error {
	parsed, err := HashFromHex(string(b))
	if err != nil {
		return err
	}
	*h = parsed
	return nil
}

// HashFromHex parses a 64-character hex string into a Hash.
func HashFromHex(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("parse hash: %w", err)
	}
	if len(b) != HashSize {
		return h, fmt.Errorf("parse hash: got %d bytes, want %d", len(b), HashSize)
	}
	copy(h[:], b)
	return h, nil
}

// Address identifies an account: the first 20 bytes of the SHA-256 of the
// public key encoding.
type Address [AddressSize]byte

// ZeroAddress is the all-zero address. It denotes "no account": coinbase
// transactions originate from it and contract creations are sent to it.
var ZeroAddress Address

// Bytes returns the address as a byte slice.
func (a Address) Bytes() []byte { return a[:] }

// Hex returns the full lowercase hex encoding of the address.
func (a Address) Hex() string { return hex.EncodeToString(a[:]) }

// Short returns an abbreviated hex form suitable for logs.
func (a Address) Short() string { return hex.EncodeToString(a[:4]) }

// String implements fmt.Stringer.
func (a Address) String() string { return a.Hex() }

// IsZero reports whether the address is the zero value.
func (a Address) IsZero() bool { return a == ZeroAddress }

// MarshalText encodes the address as hex (used by encoding/json).
func (a Address) MarshalText() ([]byte, error) {
	return []byte(a.Hex()), nil
}

// UnmarshalText decodes a hex address (used by encoding/json).
func (a *Address) UnmarshalText(b []byte) error {
	parsed, err := AddressFromHex(string(b))
	if err != nil {
		return err
	}
	*a = parsed
	return nil
}

// AddressFromHex parses a 40-character hex string into an Address.
func AddressFromHex(s string) (Address, error) {
	var a Address
	b, err := hex.DecodeString(s)
	if err != nil {
		return a, fmt.Errorf("parse address: %w", err)
	}
	if len(b) != AddressSize {
		return a, fmt.Errorf("parse address: got %d bytes, want %d", len(b), AddressSize)
	}
	copy(a[:], b)
	return a, nil
}

// AddressFromHash derives an address from a hash, used for contract
// addresses (hash of creator and nonce).
func AddressFromHash(h Hash) Address {
	var a Address
	copy(a[:], h[:AddressSize])
	return a
}

// The one key encoding and the one signature format, both fixed-width:
// a public key is the compressed point, 0x02 or 0x03 (the parity of Y)
// then X; a signature is r then s, 32 big-endian bytes each.
const (
	PubKeyLen = 33
	SigLen    = 64
)

// Verification errors, matchable with errors.Is. Of the two s that
// satisfy the ECDSA equation only the one at most n/2 is a signature,
// so that nobody can turn a signed transaction into another id.
var (
	ErrBadPubKey    = errors.New("cryptoutil: malformed public key")
	ErrSigRange     = errors.New("cryptoutil: signature r or s outside [1, n-1]")
	ErrHighS        = errors.New("cryptoutil: signature s above n/2")
	ErrBadSignature = errors.New("cryptoutil: signature does not verify")
)

var (
	curveN = elliptic.P256().Params().N
	halfN  = new(big.Int).Rsh(curveN, 1)

	// The same two bounds as SigLen/2 big-endian bytes, so that Verify
	// checks r and s by comparing bytes.
	curveNBytes = curveN.FillBytes(make([]byte, SigLen/2))
	halfNBytes  = halfN.FillBytes(make([]byte, SigLen/2))
	zeroScalar  = make([]byte, SigLen/2)
)

// KeyPair is an ECDSA P-256 key pair bound to its derived address.
type KeyPair struct {
	priv *ecdsa.PrivateKey
	pub  []byte
	addr Address
}

// GenerateKey creates a new random key pair. If r is nil, crypto/rand is
// used; tests may pass a deterministic reader.
func GenerateKey(r io.Reader) (*KeyPair, error) {
	if r == nil {
		r = rand.Reader
	}
	priv, err := ecdsa.GenerateKey(elliptic.P256(), r)
	if err != nil {
		return nil, fmt.Errorf("generate key: %w", err)
	}
	return newKeyPair(priv), nil
}

// KeyFromSeed deterministically derives a key pair from a seed. It is
// intended for simulations and tests where reproducibility matters more
// than secrecy; the scalar is the seed hash reduced mod the curve order.
func KeyFromSeed(seed []byte) *KeyPair {
	curve := elliptic.P256()
	h := HashBytes([]byte("dcsledger/keyseed"), seed)
	d := new(big.Int).SetBytes(h[:])
	n := new(big.Int).Sub(curveN, big.NewInt(1))
	d.Mod(d, n)
	d.Add(d, big.NewInt(1))
	priv := &ecdsa.PrivateKey{
		PublicKey: ecdsa.PublicKey{Curve: curve},
		D:         d,
	}
	priv.PublicKey.X, priv.PublicKey.Y = curve.ScalarBaseMult(d.Bytes())
	return newKeyPair(priv)
}

func newKeyPair(priv *ecdsa.PrivateKey) *KeyPair {
	pub := elliptic.MarshalCompressed(priv.Curve, priv.X, priv.Y)
	return &KeyPair{
		priv: priv,
		pub:  pub,
		addr: PubKeyToAddress(pub),
	}
}

// PublicKey returns the encoded public key (PubKeyLen bytes).
func (k *KeyPair) PublicKey() []byte {
	out := make([]byte, len(k.pub))
	copy(out, k.pub)
	return out
}

// Address returns the address derived from the public key.
func (k *KeyPair) Address() Address { return k.addr }

// Sign signs the given digest with a random nonce and returns the
// SigLen-byte signature.
func (k *KeyPair) Sign(digest Hash) ([]byte, error) {
	r, s, err := ecdsa.Sign(rand.Reader, k.priv, digest[:])
	if err != nil {
		return nil, fmt.Errorf("sign: %w", err)
	}
	return encodeSig(r, s), nil
}

// SignDeterministic signs digest with a nonce derived from the private
// key and the digest (RFC 6979 in spirit: k = H(key ‖ digest ‖ ctr)
// reduced into [1, n-1]), so the same key and digest always produce the
// same signature — byte-identical across processes and Go versions. The
// scenario harness's bit-identical determinism contract needs this:
// stdlib ECDSA hedges its nonce with runtime randomness, so
// identically-seeded simulation runs would diverge at the first signed
// transaction. Signatures verify with Verify like any other. Use for
// simulation workloads, not for keys that must resist side channels.
func (k *KeyPair) SignDeterministic(digest Hash) ([]byte, error) {
	curve := k.priv.Curve
	nMinus1 := new(big.Int).Sub(curveN, big.NewInt(1))
	z := new(big.Int).SetBytes(digest[:]) // P-256: hash length == order length, no truncation
	var keyBytes [32]byte
	k.priv.D.FillBytes(keyBytes[:])
	for ctr := byte(0); ; ctr++ {
		kh := HashBytes([]byte("dcsledger/detsign"), keyBytes[:], digest[:], []byte{ctr})
		kNonce := new(big.Int).SetBytes(kh[:])
		kNonce.Mod(kNonce, nMinus1)
		kNonce.Add(kNonce, big.NewInt(1))
		rx, _ := curve.ScalarBaseMult(kNonce.Bytes())
		r := new(big.Int).Mod(rx, curveN)
		if r.Sign() == 0 {
			continue
		}
		kInv := new(big.Int).ModInverse(kNonce, curveN)
		if kInv == nil {
			continue
		}
		s := new(big.Int).Mul(r, k.priv.D)
		s.Add(s, z)
		s.Mul(s, kInv)
		s.Mod(s, curveN)
		if s.Sign() == 0 {
			continue
		}
		return encodeSig(r, s), nil
	}
}

// encodeSig renders r‖s with s replaced by n-s when it is above n/2.
func encodeSig(r, s *big.Int) []byte {
	if s.Cmp(halfN) > 0 {
		s = new(big.Int).Sub(curveN, s)
	}
	out := make([]byte, SigLen)
	r.FillBytes(out[:SigLen/2])
	s.FillBytes(out[SigLen/2:])
	return out
}

// Verify checks a signature over digest against an encoded public key:
// nil, or the reason it is refused — ErrSigRange, ErrHighS, ErrBadPubKey
// or ErrBadSignature.
func Verify(pubKey []byte, digest Hash, sig []byte) error {
	if len(sig) != SigLen {
		return fmt.Errorf("%w: %d bytes, want %d", ErrBadSignature, len(sig), SigLen)
	}
	r, s := sig[:SigLen/2], sig[SigLen/2:]
	if !inRange(r) || !inRange(s) {
		return ErrSigRange
	}
	if bytes.Compare(s, halfNBytes) > 0 {
		return ErrHighS
	}
	// The square root that recovers Y: the one step a compressed key
	// adds, and only here, not where a transaction is decoded. A wrong
	// length or prefix, an X at or above p and an X with no root all
	// fail it.
	x, y := elliptic.UnmarshalCompressed(elliptic.P256(), pubKey)
	if x == nil {
		return ErrBadPubKey
	}
	var der [derMaxLen]byte
	if !ecdsa.VerifyASN1(&ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}, digest[:], appendDER(der[:0], r, s)) {
		return ErrBadSignature
	}
	return nil
}

// inRange reports whether a 32-byte big-endian scalar is in [1, n-1].
func inRange(v []byte) bool {
	return !bytes.Equal(v, zeroScalar) && bytes.Compare(v, curveNBytes) < 0
}

// derMaxLen bounds SEQUENCE { INTEGER r, INTEGER s }: two bytes of
// header, then per integer two of header, a zero and 32 of value.
const derMaxLen = 2 + 2*(2+1+SigLen/2)

// appendDER appends that sequence, the form ecdsa.VerifyASN1 reads, for
// nonzero r and s: each integer minimal, with a zero before a set top
// bit, and every length one byte.
func appendDER(dst, r, s []byte) []byte {
	start := len(dst)
	dst = append(dst, 0x30, 0)
	for _, v := range [...][]byte{r, s} {
		v = bytes.TrimLeft(v, "\x00")
		if v[0] >= 0x80 {
			dst = append(dst, 0x02, byte(len(v)+1), 0)
		} else {
			dst = append(dst, 0x02, byte(len(v)))
		}
		dst = append(dst, v...)
	}
	dst[start+1] = byte(len(dst) - start - 2)
	return dst
}

// addressTag domain-separates an address from every other hash.
const addressTag = "dcsledger/address"

// PubKeyToAddress derives the account address from an encoded public
// key: one SHA-256, hashed from the stack, and no check that the key is
// a point (Verify's).
func PubKeyToAddress(pubKey []byte) Address {
	var buf [len(addressTag) + PubKeyLen]byte
	h := sha256.Sum256(append(append(buf[:0], addressTag...), pubKey...))
	var a Address
	copy(a[:], h[:AddressSize])
	return a
}
