package mpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"strings"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/wire"
)

// codecSeeds are nodes of every kind, in proof form and stored: leaves
// and extensions whose paths have odd and even nibble counts (and none),
// a value long enough for a two-byte length, branches with and without a
// value, and their stored forms with their leaf children inline.
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
	plain, valued, leaves := &branchNode{}, &branchNode{value: []byte{}}, &branchNode{}
	plain.children[0], plain.children[15], valued.children[6] = child, child, child
	leaves.children[2], leaves.children[9] = child, nodes[len(nodes)-1]
	leaves.children[11] = &leafNode{keyEnd: []byte{0xf, 0, 3}, value: []byte("eleven")}
	var out [][]byte
	for _, n := range nodes {
		out = append(out, encodeNode(n))
	}
	for _, n := range []node{plain, valued, leaves} {
		out = append(out, encodeNode(n), encodeStored(n))
	}
	return out
}

// isStored reports whether enc is of a kind only a store holds.
func isStored(enc []byte) bool { return len(enc) > 0 && (enc[0] == kindStored || enc[0] == kindDelta) }

// readStored is the decoder a source reads a kind-4 record with, before
// the record's hash is checked.
func readStored(enc []byte) (*branchNode, error) {
	r := wire.NewReader(enc[1:])
	return readBranch(r, r.U16(), r.U16())
}

// TestStorageCodecIsCanonical: every node has one encoding of each form.
// The seeds round-trip to their own bytes and hash, a packed path costs
// half a byte a nibble, and the same content under a padded uvarint, a
// non-zero pad nibble or trailing bytes is refused. A store holds a
// branch in kind 4 and never in proof form.
func TestStorageCodecIsCanonical(t *testing.T) {
	for _, enc := range codecSeeds() {
		if isStored(enc) {
			br, err := readStored(enc)
			if err != nil {
				t.Fatalf("decode %x: %v", enc, err)
			}
			if got := encodeStored(br); !bytes.Equal(got, enc) {
				t.Fatalf("%x re-encodes to %x", enc, got)
			}
			if _, size, err := decodeStored(nil, br.hash(), enc, maxDeltaDepth); err != nil || size < footprint(br) {
				t.Fatalf("stored %x: size %d, %v", enc, size, err)
			}
			continue
		}
		n, err := decodeNode(enc)
		if err != nil {
			t.Fatalf("decode %x: %v", enc, err)
		}
		if got := encodeNode(n); !bytes.Equal(got, enc) {
			t.Fatalf("%x re-encodes to %x", enc, got)
		}
		if _, _, err := decodeStored(nil, n.hash(), enc, maxDeltaDepth); (err == nil) != (enc[0] != kindBranch) {
			t.Fatalf("%x read from a store: %v", enc, err)
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
		if n, err := decodeNode(enc); err == nil {
			t.Errorf("%s: decoded as %T", name, n)
		}
	}
	// The canonical twins of the padded forms decode.
	for _, enc := range [][]byte{{kindLeaf, 1, 0x70, 1, 'v'}, append([]byte{kindExt, 1, 0x70}, make([]byte, cryptoutil.HashSize)...)} {
		if _, err := decodeNode(enc); err != nil {
			t.Fatalf("%x: %v", enc, err)
		}
	}
}

// storedSeeds are kind-4 records, each refused for the reason it is
// named after, except those named "valid".
func storedSeeds() map[string][]byte {
	h := cryptoutil.HashBytes([]byte("child"))
	leaf := []byte{1, 0x70, 1, 'v'} // key end {7}, value "v"
	rec := func(present, inline uint16, children ...[]byte) []byte {
		enc := binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16([]byte{kindStored}, present), inline)
		return append(append(enc, bytes.Join(children, nil)...), 0)
	}
	return map[string][]byte{
		"valid":                     rec(0b11, 0b10, h[:], leaf),
		"valid, two leaves":         rec(0b101, 0b101, leaf, leaf),
		"inline not within present": rec(0b11, 0b110, h[:], leaf),
		"fewer than two children":   rec(0b10, 0b10, leaf),
		"no children":               rec(0, 0),
		"padded inline key":         rec(0b11, 0b10, h[:], []byte{1, 0x7a, 1, 'v'}),
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

// deltaChain returns a source holding a full branch of six children and
// two inline leaves, a chain of three deltas on it, each changing one
// more child, and a leaf; and the chain's branches, the full one first.
func deltaChain() (memSource, []*branchNode, cryptoutil.Hash) {
	src := memSource{}
	full := &branchNode{}
	for i := range 6 {
		full.children[i] = hashNode(cryptoutil.HashBytes([]byte{byte(i)}))
	}
	full.children[6] = &leafNode{keyEnd: []byte{1, 2}, value: []byte("six")}
	full.children[7] = &leafNode{keyEnd: []byte{3}, value: []byte("seven")}
	src[full.hash()] = encodeStored(full)
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

// delta is the kind-3 record with these fields and no value, written by
// hand: children are the differing children as spelled.
func delta(base cryptoutil.Hash, present, differ, inline, same uint16, children ...[]byte) []byte {
	enc := append([]byte{kindDelta}, base[:]...)
	for _, m := range []uint16{present, differ, inline, same} {
		enc = binary.BigEndian.AppendUint16(enc, m)
	}
	return append(append(enc, bytes.Join(children, nil)...), 0)
}

// deltaSeed is a delta record and the hash it is stored under.
type deltaSeed struct {
	enc []byte
	h   cryptoutil.Hash
}

// deltaSeeds are delta records against deltaChain's source, each refused
// for the reason it is named after, except those named "valid". A valid
// seed is stored under its branch's hash; so is "value alone under
// another key", whose record spells its branch's leaf under the base's
// key.
func deltaSeeds() map[string]deltaSeed {
	_, chain, leaf := deltaChain()
	full, top := chain[0], chain[len(chain)-1]
	other := cryptoutil.HashBytes([]byte("other"))
	deeper := top.clone()
	deeper.children[5] = hashNode(other)
	with := func(i int, c node) cryptoutil.Hash {
		br := full.clone()
		br.children[i] = c
		return br.hash()
	}
	seed := func(enc []byte) deltaSeed { return deltaSeed{enc, cryptoutil.HashBytes(enc)} }
	return map[string]deltaSeed{
		"valid":                          {delta(full.hash(), 0xff, 0b1, 0, 0, other[:]), with(0, hashNode(other))},
		"valid, a value alone":           {delta(full.hash(), 0xff, 0x40, 0x40, 0x40, []byte{2, '6', '!'}), with(6, &leafNode{keyEnd: []byte{1, 2}, value: []byte("6!")})},
		"valid, a leaf under a new key":  {delta(full.hash(), 0xff, 0x80, 0x80, 0, []byte{1, 0x40, 1, 'x'}), with(7, &leafNode{keyEnd: []byte{4}, value: []byte("x")})},
		"valid, a leaf over a hash":      {delta(full.hash(), 0xff, 0b1, 0b1, 0, []byte{0, 0}), with(0, &leafNode{value: []byte{}})},
		"missing base":                   seed(delta(other, 0xff, 0b1, 0, 0, other[:])),
		"base not a branch":              seed(delta(leaf, 0xff, 0b1, 0, 0, other[:])),
		"differ not within present":      seed(delta(full.hash(), 0xff, 0x101, 0, 0, other[:], other[:])),
		"inline not within differ":       seed(delta(full.hash(), 0xff, 0b1, 0b11, 0, other[:])),
		"same not within inline":         seed(delta(full.hash(), 0xff, 0x40, 0, 0x40, []byte{2, '6', '!'})),
		"value alone over a hash":        seed(delta(full.hash(), 0xff, 0b1, 0b1, 0b1, []byte{1, 'x'})),
		"value alone under another key":  {delta(full.hash(), 0xff, 0x80, 0x80, 0x80, []byte{1, 'x'}), with(7, &leafNode{keyEnd: []byte{4}, value: []byte("x")})},
		"keyed leaf with its base's key": seed(delta(full.hash(), 0xff, 0x80, 0x80, 0, []byte{1, 0x30, 1, 'x'})),
		"leaf repeats its base's":        seed(delta(full.hash(), 0xff, 0x80, 0x80, 0x80, append([]byte{5}, "seven"...))),
		"padded inline key":              seed(delta(full.hash(), 0xff, 0x80, 0x80, 0, []byte{1, 0x4a, 1, 'x'})),
		"fewer than two children":        seed(delta(full.hash(), 0b1, 0, 0, 0)),
		"one child kept":                 seed(delta(full.hash(), 0b11, 0b1, 0, 0, other[:])),
		"kept child the base lacks":      seed(delta(full.hash(), 0x1ff, 0b1, 0, 0, other[:])),
		"differing child the base's":     seed(delta(full.hash(), 0xff, 0b1, 0, 0, cryptoutil.Hash(full.children[0].(hashNode)).Bytes())),
		"chain deeper than 3":            seed(encodeDelta(deeper, top, top.hash())),
	}
}

// TestDeltaSeedsAreRefused: the stored kinds are read only through a
// source, which builds a delta's branch against its base; the sourceless
// decoder, and so a proof, refuses every one, and the source path refuses
// each malformed seed for the reason it is named after. The chain the
// delta seeds hang on reads back at depths one to three, and a branch
// over its top is written full.
func TestDeltaSeedsAreRefused(t *testing.T) {
	src, chain, _ := deltaChain()
	for i, br := range chain {
		nd, d, err := resolveStored(src, br.hash(), maxDeltaDepth, true)
		if err != nil || nd.hash() != br.hash() || (d == nil) != (i == 0) || d != nil && d.depth != i {
			t.Fatalf("chain %d: %v, delta %v", i, err, d != nil)
		}
	}
	refused := func(name string, enc []byte, err error, want string) {
		t.Helper()
		if _, err := decodeNode(enc); err == nil {
			t.Errorf("%s: the sourceless decoder accepted a stored record", name)
		}
		if _, _, err := VerifyProof(cryptoutil.HashBytes(enc), nil, [][]byte{enc}); err == nil {
			t.Errorf("%s: a proof of a stored record verified", name)
		}
		switch {
		case want == "" && err != nil:
			t.Errorf("%s: %v", name, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%s: %v, want an error saying %q", name, err, want)
		}
	}
	for name, s := range deltaSeeds() {
		src := maps.Clone(src)
		src[s.h] = s.enc
		_, _, err := resolveStored(src, s.h, maxDeltaDepth, true)
		refused(name, s.enc, err, map[string]string{
			"missing base":                   "missing node",
			"base not a branch":              "not a branch",
			"differ not within present":      "not all present",
			"inline not within differ":       "not all differing",
			"same not within inline":         "not all inline",
			"value alone over a hash":        "its base's is not a leaf",
			"value alone under another key":  "fails hash verification",
			"keyed leaf with its base's key": "spells its base's key",
			"leaf repeats its base's":        "repeats its base's",
			"padded inline key":              "non-zero pad nibble",
			"fewer than two children":        "keeps 1 children",
			"one child kept":                 "keeps 1 children",
			"kept child the base lacks":      "which its base lacks",
			"differing child the base's":     "repeats its base's",
			"chain deeper than 3":            "deeper than 3",
		}[name])
	}
	for name, enc := range storedSeeds() {
		_, err := readStored(enc)
		refused(name, enc, err, map[string]string{
			"inline not within present": "not all present",
			"fewer than two children":   "branch with 1 children",
			"no children":               "branch with 0 children",
			"padded inline key":         "non-zero pad nibble",
		}[name])
	}
}

// FuzzNodeDecode: whatever bytes a store or a proof hands the trie, the
// decoder neither panics nor accepts a second spelling of a node — what
// decodes re-encodes to the same bytes. The sourceless decoder refuses
// the stored kinds; read through a source, a full branch record is the
// one spelling of its branch, and, built against deltaChain's records, a
// delta is the one spelling of its branch against its base, reads back
// under its branch's hash, and is at most three deep.
func FuzzNodeDecode(f *testing.F) {
	for _, enc := range codecSeeds() {
		f.Add(enc)
	}
	f.Add([]byte{kindLeaf, 0x81, 0x00, 0x70, 1, 'v'}) // over-long uvarint
	f.Add([]byte{kindLeaf, 1, 0x7a, 1, 'v'})          // pad nibble set
	for _, s := range deltaSeeds() {
		f.Add(s.enc)
	}
	for _, enc := range storedSeeds() {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, enc []byte) {
		n, err := decodeNode(enc)
		if isStored(enc) {
			if err == nil {
				t.Fatalf("%x: the sourceless decoder accepted a stored record", enc)
			}
			fuzzStored(t, enc)
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

func fuzzStored(t *testing.T, enc []byte) {
	src, _, _ := deltaChain()
	var br *branchNode
	if IsDelta(enc) {
		d, err := buildDelta(src, enc, maxDeltaDepth)
		if err != nil {
			return
		}
		bn, bd, err := resolveStored(src, d.base, maxDeltaDepth, true)
		if err != nil {
			t.Fatalf("%x built, but its base does not resolve: %v", enc, err)
		}
		if bd != nil && bd.depth+1 != d.depth || bd == nil && d.depth != 1 || d.depth > maxDeltaDepth {
			t.Fatalf("%x built at depth %d", enc, d.depth)
		}
		if got := encodeDelta(d.branch, bn.(*branchNode), d.base); !bytes.Equal(got, enc) {
			t.Fatalf("%x builds, and re-encodes to %x", enc, got)
		}
		br = d.branch
	} else {
		var err error
		if br, err = readStored(enc); err != nil {
			return
		}
		if got := encodeStored(br); !bytes.Equal(got, enc) {
			t.Fatalf("%x decodes, and re-encodes to %x", enc, got)
		}
	}
	src[br.hash()] = enc
	if nd, err := resolveNode(src, hashNode(br.hash())); err != nil || nd.hash() != br.hash() {
		t.Fatalf("%x does not read back under its hash: %v", enc, err)
	}
}
