package mpt

import (
	"bytes"
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

// FuzzNodeDecode: whatever bytes a store or a proof hands the trie, the
// decoder neither panics nor accepts a second spelling of a node — what
// decodes re-encodes to the same bytes.
func FuzzNodeDecode(f *testing.F) {
	for _, enc := range codecSeeds() {
		f.Add(enc)
	}
	f.Add([]byte{kindLeaf, 0x81, 0x00, 0x70, 1, 'v'}) // over-long uvarint
	f.Add([]byte{kindLeaf, 1, 0x7a, 1, 'v'})          // pad nibble set
	f.Fuzz(func(t *testing.T, enc []byte) {
		n, _, err := decodeNode(enc)
		if err != nil {
			return
		}
		if got := encodeNode(n); !bytes.Equal(got, enc) {
			t.Fatalf("%x decodes, and re-encodes to %x", enc, got)
		}
	})
}
