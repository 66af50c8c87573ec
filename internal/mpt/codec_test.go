package mpt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dcsledger/internal/cryptoutil"
)

// codecSeeds are storage-form nodes of every kind: leaves and extensions
// whose paths have odd and even nibble counts (and none), a value long
// enough for a two-byte length, branches with and without a value.
func codecSeeds() [][]byte {
	child := hashNode(cryptoutil.HashBytes([]byte("child")))
	var nodes []node
	for _, nibbles := range [][]byte{{}, {7}, {1, 2}, {0xf, 0, 3}, toNibbles([]byte("twenty byte address!"))[3:]} {
		nodes = append(nodes, &leafNode{keyEnd: nibbles, value: []byte("v")})
		if len(nibbles) > 0 {
			nodes = append(nodes, &extNode{path: nibbles, child: child})
		}
	}
	nodes = append(nodes, &leafNode{keyEnd: []byte{1}, value: bytes.Repeat([]byte{9}, 300)}, &leafNode{keyEnd: []byte{1, 2}, value: []byte{}})
	plain, valued := &branchNode{}, &branchNode{value: []byte{}}
	plain.children[0], plain.children[15], valued.children[6] = child, child, child
	nodes = append(nodes, plain, valued)
	var out [][]byte
	for _, n := range nodes {
		out = append(out, encodeNode(n))
	}
	return out
}

// TestStorageCodecIsCanonical: every node has one storage encoding. The
// seeds round-trip to their own bytes and hash, a packed path costs half
// a byte a nibble, and the same content under a padded uvarint, a
// non-zero pad nibble or trailing bytes is refused.
func TestStorageCodecIsCanonical(t *testing.T) {
	for _, enc := range codecSeeds() {
		n, size, err := decodeNode(enc)
		if err != nil || size <= 0 {
			t.Fatalf("decode %x: %v", enc, err)
		}
		if got := encodeNode(n); !bytes.Equal(got, enc) {
			t.Fatalf("%x re-encodes to %x", enc, got)
		}
	}
	leaf := &leafNode{keyEnd: toNibbles([]byte("twenty byte address!"))[3:], value: []byte("v")}
	if got, want := len(encodeNode(leaf)), 1+1+19+1+1; got != want {
		t.Fatalf("a 37-nibble leaf with a one-byte value is %d bytes, want %d", got, want)
	}
	for name, enc := range map[string][]byte{
		"leaf, padded nibble count":  {kindLeaf, 0x81, 0x00, 0x70, 1, 'v'},
		"leaf, padded value length":  {kindLeaf, 1, 0x70, 0x81, 0x00, 'v'},
		"leaf, pad nibble set":       {kindLeaf, 1, 0x7a, 1, 'v'},
		"leaf, trailing byte":        {kindLeaf, 1, 0x70, 1, 'v', 0},
		"leaf, path cut short":       {kindLeaf, 3, 0x70},
		"ext, pad nibble set":        append([]byte{kindExt, 1, 0x71}, make([]byte, cryptoutil.HashSize)...),
		"ext, empty path":            append([]byte{kindExt, 0}, make([]byte, cryptoutil.HashSize)...),
		"ext, nibble count over max": {kindExt, 0xff, 0xff, 0xff, 0x7f},
	} {
		if n, _, err := decodeNode(enc); err == nil {
			t.Errorf("%s: decoded as %T", name, n)
		}
	}
	// The canonical twins of the padded forms decode.
	for _, enc := range [][]byte{{kindLeaf, 1, 0x70, 1, 'v'}, append([]byte{kindExt, 1, 0x70}, make([]byte, cryptoutil.HashSize)...)} {
		if _, _, err := decodeNode(enc); err != nil {
			t.Fatalf("%x: %v", enc, err)
		}
	}
}

// memSource is a node source over records in a map, without a cache:
// every resolve decodes.
type memSource map[cryptoutil.Hash][]byte

func (m memSource) Node(h cryptoutil.Hash, decode func(cryptoutil.Hash, []byte) (any, int, error)) (any, error) {
	enc, ok := m[h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrMissingNode, h.Short())
	}
	v, _, err := decode(h, enc)
	return v, err
}

// deltaChain returns a source holding a full branch of six children, a
// chain of three deltas on it, each changing one more child, and a
// leaf; and the chain's branches, the full one first.
func deltaChain() (memSource, []*branchNode, cryptoutil.Hash) {
	src := memSource{}
	full := &branchNode{}
	for i := range 6 {
		full.children[i] = hashNode(cryptoutil.HashBytes([]byte{byte(i)}))
	}
	src[full.hash()] = encodeNode(full)
	chain := []*branchNode{full}
	for i := range maxDeltaDepth {
		prev := chain[len(chain)-1]
		next := prev.clone()
		next.children[i] = hashNode(cryptoutil.HashBytes([]byte{byte(i), 'd'}))
		src[next.hash()] = encodeDelta(next, prev, prev.hash())
		chain = append(chain, next)
	}
	leaf := &leafNode{keyEnd: []byte{1}, value: []byte("v")}
	src[leaf.hash()] = encodeNode(leaf)
	return src, chain, leaf.hash()
}

// delta is the kind-3 record with these fields, written by hand.
func delta(base cryptoutil.Hash, present, differ uint16, hashes ...cryptoutil.Hash) []byte {
	enc := append([]byte{kindDelta}, base[:]...)
	enc = append(enc, byte(present>>8), byte(present), byte(differ>>8), byte(differ))
	for _, h := range hashes {
		enc = append(enc, h[:]...)
	}
	return append(enc, 0)
}

// deltaSeeds are delta records against deltaChain's source, each refused
// for the reason it is named after, except "valid".
func deltaSeeds() map[string][]byte {
	_, chain, leaf := deltaChain()
	full, top := chain[0], chain[len(chain)-1]
	other := cryptoutil.HashBytes([]byte("other"))
	deeper := top.clone()
	deeper.children[5] = hashNode(other)
	return map[string][]byte{
		"valid":                      delta(full.hash(), 0b111111, 0b1, other),
		"missing base":               delta(other, 0b111111, 0b1, other),
		"base not a branch":          delta(leaf, 0b111111, 0b1, other),
		"differ not within present":  delta(full.hash(), 0b111111, 0b1000001, other, other),
		"fewer than two children":    delta(full.hash(), 0b1, 0),
		"one child kept":             delta(full.hash(), 0b11, 0b1, other),
		"kept child the base lacks":  delta(full.hash(), 0b1000011, 0b1, other),
		"differing child the base's": delta(full.hash(), 0b111111, 0b1, full.children[0].hash()),
		"chain deeper than 3":        encodeDelta(deeper, top, top.hash()),
	}
}

// TestDeltaSeedsAreRefused: a delta is read only through a source, which
// builds the branch against its base; the sourceless decoder, and so a
// proof, refuses every one, and the source path refuses each malformed
// seed for the reason it is named after. The chain the seeds hang on
// reads back at depths one to three, and a branch over its top is
// written full.
func TestDeltaSeedsAreRefused(t *testing.T) {
	src, chain, _ := deltaChain()
	for i, br := range chain {
		nd, d, err := resolveStored(src, br.hash(), maxDeltaDepth, decodeForSource)
		if err != nil || nd.hash() != br.hash() || (d == nil) != (i == 0) || d != nil && int(d.depth.Load()) != i {
			t.Fatalf("chain %d: %v, delta %v", i, err, d != nil)
		}
	}
	for name, enc := range deltaSeeds() {
		if _, _, err := decodeNode(enc); err == nil {
			t.Errorf("%s: the sourceless decoder accepted a delta", name)
		}
		if _, _, err := VerifyProof(cryptoutil.HashBytes(enc), nil, [][]byte{enc}); err == nil {
			t.Errorf("%s: a proof of a delta verified", name)
		}
		_, _, err := (&deltaNode{enc: enc}).branch(src, maxDeltaDepth)
		want := map[string]string{
			"missing base":               "missing node",
			"base not a branch":          "not a branch",
			"differ not within present":  "not all present",
			"fewer than two children":    "keeps 1 children",
			"one child kept":             "keeps 1 children",
			"kept child the base lacks":  "which its base lacks",
			"differing child the base's": "repeats its base's",
			"chain deeper than 3":        "deeper than 3",
		}[name]
		switch {
		case want == "" && err != nil:
			t.Errorf("%s: %v", name, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%s: %v, want an error saying %q", name, err, want)
		}
	}
}

// FuzzNodeDecode: whatever bytes a store or a proof hands the trie, the
// decoder neither panics nor accepts a second spelling of a node — what
// decodes re-encodes to the same bytes. The sourceless decoder refuses
// every delta; built through a source against deltaChain's records, a
// delta is the one spelling of its branch against its base, reads back
// under its branch's hash, and is at most three deep.
func FuzzNodeDecode(f *testing.F) {
	for _, enc := range codecSeeds() {
		f.Add(enc)
	}
	f.Add([]byte{kindLeaf, 0x81, 0x00, 0x70, 1, 'v'}) // over-long uvarint
	f.Add([]byte{kindLeaf, 1, 0x7a, 1, 'v'})          // pad nibble set
	for _, enc := range deltaSeeds() {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, enc []byte) {
		n, _, err := decodeNode(enc)
		if IsDelta(enc) {
			if err == nil {
				t.Fatalf("%x: the sourceless decoder accepted a delta", enc)
			}
			fuzzDelta(t, enc)
			return
		}
		if err != nil {
			return
		}
		if got := encodeNode(n); !bytes.Equal(got, enc) {
			t.Fatalf("%x decodes, and re-encodes to %x", enc, got)
		}
	})
}

func fuzzDelta(t *testing.T, enc []byte) {
	src, _, _ := deltaChain()
	d := &deltaNode{enc: enc}
	br, depth, err := d.branch(src, maxDeltaDepth)
	if err != nil {
		return
	}
	base := cryptoutil.Hash(enc[1:33])
	bn, bd, err := resolveStored(src, base, maxDeltaDepth, decodeForSource)
	if err != nil {
		t.Fatalf("%x built, but its base does not resolve: %v", enc, err)
	}
	if bd != nil && int(bd.depth.Load())+1 != depth || bd == nil && depth != 1 || depth > maxDeltaDepth {
		t.Fatalf("%x built at depth %d", enc, depth)
	}
	if got := encodeDelta(br, bn.(*branchNode), base); !bytes.Equal(got, enc) {
		t.Fatalf("%x builds, and re-encodes to %x", enc, got)
	}
	src[br.hash()] = enc
	if nd, err := resolveNode(src, hashNode(br.hash())); err != nil || nd.hash() != br.hash() {
		t.Fatalf("%x does not read back under its hash: %v", enc, err)
	}
}
