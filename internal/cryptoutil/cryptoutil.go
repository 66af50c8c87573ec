// Package cryptoutil provides the cryptographic primitives used throughout
// the ledger: SHA-256 hashing, ECDSA P-256 key pairs, signatures, and
// addresses. It is the lowest layer of the stack; every other package that
// needs a hash or a signature imports it.
package cryptoutil

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/asn1"
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

// PubKeyLen is the length of an encoded public key: 0x04 || X (32) || Y (32).
const PubKeyLen = 65

var errBadPubKey = errors.New("cryptoutil: malformed public key")

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
	n := new(big.Int).Sub(curve.Params().N, big.NewInt(1))
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
	pub := encodePubKey(&priv.PublicKey)
	return &KeyPair{
		priv: priv,
		pub:  pub,
		addr: PubKeyToAddress(pub),
	}
}

// PublicKey returns the encoded public key (65 bytes).
func (k *KeyPair) PublicKey() []byte {
	out := make([]byte, len(k.pub))
	copy(out, k.pub)
	return out
}

// Address returns the address derived from the public key.
func (k *KeyPair) Address() Address { return k.addr }

// Sign signs the given digest and returns an ASN.1 DER signature.
func (k *KeyPair) Sign(digest Hash) ([]byte, error) {
	sig, err := ecdsa.SignASN1(rand.Reader, k.priv, digest[:])
	if err != nil {
		return nil, fmt.Errorf("sign: %w", err)
	}
	return sig, nil
}

// ecdsaSig is the ASN.1 shape of an ECDSA signature: SEQUENCE of two
// INTEGERs, exactly what ecdsa.VerifyASN1 parses.
type ecdsaSig struct {
	R, S *big.Int
}

// SignDeterministic signs digest with a nonce derived from the private
// key and the digest (RFC 6979 in spirit: k = H(key ‖ digest ‖ ctr)
// reduced into [1, n-1]), so the same key and digest always produce the
// same ASN.1 DER signature — byte-identical across processes and Go
// versions. The scenario harness's bit-identical determinism contract
// needs this: stdlib ECDSA hedges its nonce with runtime randomness, so
// identically-seeded simulation runs would diverge at the first signed
// transaction. Signatures verify with Verify like any other. Use for
// simulation workloads, not for keys that must resist side channels.
func (k *KeyPair) SignDeterministic(digest Hash) ([]byte, error) {
	curve := k.priv.Curve
	params := curve.Params()
	n := params.N
	nMinus1 := new(big.Int).Sub(n, big.NewInt(1))
	z := new(big.Int).SetBytes(digest[:]) // P-256: hash length == order length, no truncation
	var keyBytes [32]byte
	k.priv.D.FillBytes(keyBytes[:])
	for ctr := byte(0); ; ctr++ {
		kh := HashBytes([]byte("dcsledger/detsign"), keyBytes[:], digest[:], []byte{ctr})
		kNonce := new(big.Int).SetBytes(kh[:])
		kNonce.Mod(kNonce, nMinus1)
		kNonce.Add(kNonce, big.NewInt(1))
		rx, _ := curve.ScalarBaseMult(kNonce.Bytes())
		r := new(big.Int).Mod(rx, n)
		if r.Sign() == 0 {
			continue
		}
		kInv := new(big.Int).ModInverse(kNonce, n)
		if kInv == nil {
			continue
		}
		s := new(big.Int).Mul(r, k.priv.D)
		s.Add(s, z)
		s.Mul(s, kInv)
		s.Mod(s, n)
		if s.Sign() == 0 {
			continue
		}
		sig, err := asn1.Marshal(ecdsaSig{R: r, S: s})
		if err != nil {
			return nil, fmt.Errorf("sign deterministic: %w", err)
		}
		return sig, nil
	}
}

// Verify checks an ASN.1 DER signature over digest against an encoded
// public key.
func Verify(pubKey []byte, digest Hash, sig []byte) bool {
	pub, err := decodePubKey(pubKey)
	if err != nil {
		return false
	}
	return ecdsa.VerifyASN1(pub, digest[:], sig)
}

// PubKeyToAddress derives the account address from an encoded public key.
func PubKeyToAddress(pubKey []byte) Address {
	h := HashBytes([]byte("dcsledger/address"), pubKey)
	var a Address
	copy(a[:], h[:AddressSize])
	return a
}

func encodePubKey(pub *ecdsa.PublicKey) []byte {
	out := make([]byte, PubKeyLen)
	out[0] = 4
	pub.X.FillBytes(out[1:33])
	pub.Y.FillBytes(out[33:65])
	return out
}

func decodePubKey(b []byte) (*ecdsa.PublicKey, error) {
	if len(b) != PubKeyLen || b[0] != 4 {
		return nil, errBadPubKey
	}
	curve := elliptic.P256()
	x := new(big.Int).SetBytes(b[1:33])
	y := new(big.Int).SetBytes(b[33:65])
	if !curve.IsOnCurve(x, y) {
		return nil, errBadPubKey
	}
	return &ecdsa.PublicKey{Curve: curve, X: x, Y: y}, nil
}
