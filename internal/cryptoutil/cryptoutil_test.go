package cryptoutil

import (
	"bytes"
	"crypto/elliptic"
	"encoding/json"
	"errors"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

func TestHashBytesDeterministic(t *testing.T) {
	a := HashBytes([]byte("hello"), []byte("world"))
	b := HashBytes([]byte("helloworld"))
	if a != b {
		t.Fatalf("concatenated hashing differs: %s vs %s", a, b)
	}
	if a.IsZero() {
		t.Fatal("hash of data should not be zero")
	}
}

func TestHashHexRoundTrip(t *testing.T) {
	h := HashBytes([]byte("round trip"))
	got, err := HashFromHex(h.Hex())
	if err != nil {
		t.Fatalf("HashFromHex: %v", err)
	}
	if got != h {
		t.Fatalf("round trip mismatch: %s vs %s", got, h)
	}
}

func TestHashFromHexErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "empty", give: ""},
		{name: "short", give: "abcd"},
		{name: "not hex", give: strings.Repeat("zz", 32)},
		{name: "too long", give: strings.Repeat("ab", 33)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := HashFromHex(tt.give); err == nil {
				t.Fatalf("expected error for %q", tt.give)
			}
		})
	}
}

func TestAddressFromHexRoundTrip(t *testing.T) {
	k := KeyFromSeed([]byte("addr"))
	a := k.Address()
	got, err := AddressFromHex(a.Hex())
	if err != nil {
		t.Fatalf("AddressFromHex: %v", err)
	}
	if got != a {
		t.Fatalf("round trip mismatch")
	}
	if _, err := AddressFromHex("xyz"); err == nil {
		t.Fatal("expected error for bad address hex")
	}
}

func TestKeyFromSeedDeterministic(t *testing.T) {
	k1 := KeyFromSeed([]byte("seed-1"))
	k2 := KeyFromSeed([]byte("seed-1"))
	k3 := KeyFromSeed([]byte("seed-2"))
	if !bytes.Equal(k1.PublicKey(), k2.PublicKey()) {
		t.Fatal("same seed must give same key")
	}
	if bytes.Equal(k1.PublicKey(), k3.PublicKey()) {
		t.Fatal("different seeds must give different keys")
	}
	if k1.Address() != k2.Address() {
		t.Fatal("same seed must give same address")
	}
}

func TestSignVerify(t *testing.T) {
	k := KeyFromSeed([]byte("signer"))
	digest := HashBytes([]byte("message"))
	sig, err := k.Sign(digest)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := Verify(k.PublicKey(), digest, sig); err != nil {
		t.Fatalf("signature should verify: %v", err)
	}
	other := HashBytes([]byte("other message"))
	if Verify(k.PublicKey(), other, sig) == nil {
		t.Fatal("signature must not verify for a different digest")
	}
	k2 := KeyFromSeed([]byte("impostor"))
	if Verify(k2.PublicKey(), digest, sig) == nil {
		t.Fatal("signature must not verify for a different key")
	}
}

func TestSignDeterministic(t *testing.T) {
	k := KeyFromSeed([]byte("det-signer"))
	digest := HashBytes([]byte("det message"))
	sig1, err := k.SignDeterministic(digest)
	if err != nil {
		t.Fatalf("SignDeterministic: %v", err)
	}
	sig2, err := k.SignDeterministic(digest)
	if err != nil {
		t.Fatalf("SignDeterministic: %v", err)
	}
	if !bytes.Equal(sig1, sig2) {
		t.Fatalf("same key+digest must yield identical signatures: %x vs %x", sig1, sig2)
	}
	if err := Verify(k.PublicKey(), digest, sig1); err != nil {
		t.Fatalf("deterministic signature should verify: %v", err)
	}
	// A fresh KeyPair from the same seed must reproduce the signature
	// byte-for-byte: this is the cross-process determinism contract.
	again, err := KeyFromSeed([]byte("det-signer")).SignDeterministic(digest)
	if err != nil {
		t.Fatalf("SignDeterministic: %v", err)
	}
	if !bytes.Equal(sig1, again) {
		t.Fatal("re-derived key must reproduce the signature")
	}
	other := HashBytes([]byte("other"))
	sigOther, err := k.SignDeterministic(other)
	if err != nil {
		t.Fatalf("SignDeterministic: %v", err)
	}
	if bytes.Equal(sig1, sigOther) {
		t.Fatal("different digests must yield different signatures")
	}
	if Verify(k.PublicKey(), other, sig1) == nil {
		t.Fatal("signature must not verify for a different digest")
	}
	k2 := KeyFromSeed([]byte("det-other"))
	sigK2, err := k2.SignDeterministic(digest)
	if err != nil {
		t.Fatalf("SignDeterministic: %v", err)
	}
	if bytes.Equal(sig1, sigK2) {
		t.Fatal("different keys must yield different signatures")
	}
	if Verify(k2.PublicKey(), digest, sig1) == nil {
		t.Fatal("signature must not verify under a different key")
	}
}

func TestVerifyRejectsMalformedKeys(t *testing.T) {
	k := KeyFromSeed([]byte("signer"))
	digest := HashBytes([]byte("message"))
	sig, err := k.Sign(digest)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	tests := []struct {
		name string
		pub  []byte
	}{
		{name: "nil", pub: nil},
		{name: "short", pub: []byte{2, 1, 2}},
		{name: "bad prefix", pub: append([]byte{5}, k.PublicKey()[1:]...)},
		{name: "uncompressed prefix", pub: append([]byte{4}, k.PublicKey()[1:]...)},
		{name: "off curve", pub: noRoot(t)},
		{name: "x at p", pub: append([]byte{2}, elliptic.P256().Params().P.Bytes()...)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := Verify(tt.pub, digest, sig); !errors.Is(err, ErrBadPubKey) {
				t.Fatalf("Verify = %v, want ErrBadPubKey", err)
			}
		})
	}
}

// noRoot is a compressed key whose X has no square root on P-256: no
// point has it.
func noRoot(t *testing.T) []byte {
	t.Helper()
	for x := byte(1); ; x++ {
		pub := make([]byte, PubKeyLen)
		pub[0], pub[PubKeyLen-1] = 2, x
		if px, _ := elliptic.UnmarshalCompressed(elliptic.P256(), pub); px == nil {
			return pub
		}
	}
}

// TestSignaturesAreLowS: both signers emit s <= n/2, and Verify refuses
// the other signature of the same (key, digest, nonce), s replaced by
// n-s, and an r or s outside [1, n-1], each with its named error.
func TestSignaturesAreLowS(t *testing.T) {
	k := KeyFromSeed([]byte("low-s"))
	n := elliptic.P256().Params().N
	for i := 0; i < 32; i++ {
		digest := HashUint64("low-s", uint64(i))
		random, err := k.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		det, err := k.SignDeterministic(digest)
		if err != nil {
			t.Fatal(err)
		}
		for _, sig := range [][]byte{random, det} {
			if len(sig) != SigLen {
				t.Fatalf("signature of %d bytes, want %d", len(sig), SigLen)
			}
			s := new(big.Int).SetBytes(sig[32:])
			if s.Cmp(new(big.Int).Rsh(n, 1)) > 0 {
				t.Fatalf("digest %d: s above n/2", i)
			}
			high := append([]byte(nil), sig...)
			new(big.Int).Sub(n, s).FillBytes(high[32:])
			if err := Verify(k.PublicKey(), digest, high); !errors.Is(err, ErrHighS) {
				t.Fatalf("digest %d: Verify of n-s = %v, want ErrHighS", i, err)
			}
		}
	}
	digest := HashBytes([]byte("range"))
	sig, err := k.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte){
		"r = 0": func(b []byte) { clear(b[:32]) },
		"s = 0": func(b []byte) { clear(b[32:]) },
		"r = n": func(b []byte) { n.FillBytes(b[:32]) },
		"s = n": func(b []byte) { n.FillBytes(b[32:]) },
	} {
		bad := append([]byte(nil), sig...)
		mutate(bad)
		if err := Verify(k.PublicKey(), digest, bad); !errors.Is(err, ErrSigRange) {
			t.Errorf("%s: Verify = %v, want ErrSigRange", name, err)
		}
	}
	if err := Verify(k.PublicKey(), digest, sig[:SigLen-1]); !errors.Is(err, ErrBadSignature) {
		t.Errorf("short signature: Verify = %v, want ErrBadSignature", err)
	}
}

// TestAppendDER pins the ASN.1 form Verify hands the stdlib: leading
// zero bytes dropped, a zero put back where the top bit is set.
func TestAppendDER(t *testing.T) {
	r := make([]byte, 32)
	r[31] = 1
	s := make([]byte, 32)
	s[0] = 0x80
	want := append([]byte{0x30, 0x26, 0x02, 0x01, 0x01, 0x02, 0x21, 0x00}, s...)
	if got := appendDER(nil, r, s); !bytes.Equal(got, want) {
		t.Fatalf("appendDER = %x, want %x", got, want)
	}
	n := elliptic.P256().Params().N
	top := new(big.Int).Sub(n, big.NewInt(1)).FillBytes(make([]byte, 32))
	if got := appendDER(nil, top, top); len(got) != derMaxLen || got[1] != derMaxLen-2 {
		t.Fatalf("appendDER(n-1, n-1) = %x, want %d bytes", got, derMaxLen)
	}
}

// TestVerifyShortScalars verifies signatures whose r or s starts with a
// zero byte, the ones whose DER integers are shorter than 32 bytes.
func TestVerifyShortScalars(t *testing.T) {
	k := KeyFromSeed([]byte("short"))
	var short [2]int
	for i := uint64(0); short[0] == 0 || short[1] == 0; i++ {
		digest := HashUint64("short", i)
		sig, err := k.SignDeterministic(digest)
		if err != nil {
			t.Fatal(err)
		}
		if sig[0] != 0 && sig[32] != 0 {
			continue
		}
		if err := Verify(k.PublicKey(), digest, sig); err != nil {
			t.Fatalf("digest %d, signature %x: %v", i, sig, err)
		}
		if sig[0] == 0 {
			short[0]++
		} else {
			short[1]++
		}
	}
}

func TestGenerateKey(t *testing.T) {
	k, err := GenerateKey(nil)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	digest := HashBytes([]byte("gen"))
	sig, err := k.Sign(digest)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := Verify(k.PublicKey(), digest, sig); err != nil {
		t.Fatalf("generated key signature should verify: %v", err)
	}
}

func TestPubKeyToAddressStable(t *testing.T) {
	k := KeyFromSeed([]byte("stable"))
	if PubKeyToAddress(k.PublicKey()) != k.Address() {
		t.Fatal("address derivation mismatch")
	}
}

func TestHashUint64DomainSeparation(t *testing.T) {
	if HashUint64("a", 1) == HashUint64("b", 1) {
		t.Fatal("different tags must hash differently")
	}
	if HashUint64("a", 1) == HashUint64("a", 2) {
		t.Fatal("different values must hash differently")
	}
}

func TestHashPropertyNoCollisionsOnDistinctInputs(t *testing.T) {
	// Property: distinct byte strings hash to distinct digests (collision
	// resistance sampled via testing/quick).
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		return HashBytes(a) != HashBytes(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddressFromHashPrefix(t *testing.T) {
	h := HashBytes([]byte("contract"))
	a := AddressFromHash(h)
	if !bytes.Equal(a[:], h[:AddressSize]) {
		t.Fatal("AddressFromHash must take the hash prefix")
	}
}

func TestJSONHexEncoding(t *testing.T) {
	h := HashBytes([]byte("json"))
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if string(data) != `"`+h.Hex()+`"` {
		t.Fatalf("hash JSON = %s", data)
	}
	var back Hash
	if err := json.Unmarshal(data, &back); err != nil || back != h {
		t.Fatalf("hash JSON round trip: %v", err)
	}

	a := KeyFromSeed([]byte("json")).Address()
	data, err = json.Marshal(a)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if string(data) != `"`+a.Hex()+`"` {
		t.Fatalf("address JSON = %s", data)
	}
	var backA Address
	if err := json.Unmarshal(data, &backA); err != nil || backA != a {
		t.Fatalf("address JSON round trip: %v", err)
	}
	if err := json.Unmarshal([]byte(`"zz"`), &backA); err == nil {
		t.Fatal("bad hex must fail to unmarshal")
	}
	// Addresses work as JSON map keys.
	m := map[Address]uint64{a: 7}
	data, err = json.Marshal(m)
	if err != nil {
		t.Fatalf("map Marshal: %v", err)
	}
	var backM map[Address]uint64
	if err := json.Unmarshal(data, &backM); err != nil || backM[a] != 7 {
		t.Fatalf("map round trip: %v", err)
	}
}
