package mpt

import (
	"bytes"
	"fmt"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/wire"
)

// Storage codec: the byte form a node takes inside a node store and in
// a proof. It is distinct from the hash preimage (which predates it and
// must not change), but commits to exactly the same content, so
// decode+rehash always reproduces the stored hash — the source decode
// path verifies that before a node is ever trusted. Lengths are
// canonical uvarints and nibble paths are packed two to a byte:
//
//	leaf:   u8 kind=2 | nibbles keyEnd | uvarint len | value
//	ext:    u8 kind=1 | nibbles path   | 32B child hash
//	branch: u8 kind=0 | u16 child bitmap | 32B per set child (ascending)
//	        | bool hasValue | uvarint len | value (if hasValue)
//	nibbles: uvarint count | ceil(count/2) bytes, high nibble first,
//	        the low nibble of the last byte zero when count is odd

const (
	kindBranch = 0
	kindExt    = 1
	kindLeaf   = 2

	// maxBlob bounds decoded key/value/path fields (far above anything
	// the ledger stores, far below an allocation-bomb length field).
	maxBlob = 1 << 20
)

// putNibbles appends a nibble path in packed form.
func putNibbles(b *wire.Buffer, path []byte) {
	b.Uvarint(uint64(len(path)))
	for i := 0; i+1 < len(path); i += 2 {
		b.U8(path[i]<<4 | path[i+1])
	}
	if len(path)%2 == 1 {
		b.U8(path[len(path)-1] << 4)
	}
}

// readNibbles reads a packed nibble path back into one nibble per byte;
// ok is false when the pad nibble of an odd path is not zero.
func readNibbles(r *wire.Reader) (path []byte, ok bool) {
	n := int(r.Uvarint(maxBlob))
	path = make([]byte, 0, min(n, 64)) // grows only as bytes are really there
	for len(path) < n && r.Err() == nil {
		b := r.U8()
		if path = append(path, b>>4); len(path) < n {
			path = append(path, b&0x0f)
		} else if b&0x0f != 0 {
			return nil, false
		}
	}
	return path, true
}

// encodeNode renders a resolved node in storage form.
func encodeNode(n node) []byte {
	var b wire.Buffer
	switch v := n.(type) {
	case *leafNode:
		b.U8(kindLeaf)
		putNibbles(&b, v.keyEnd)
		b.VarBlob(v.value)
	case *extNode:
		b.U8(kindExt)
		putNibbles(&b, v.path)
		ch := v.child.hash()
		b.Raw(ch[:])
	case *branchNode:
		b.U8(kindBranch)
		var bitmap uint16
		for i, c := range v.children {
			if c != nil {
				bitmap |= 1 << uint(i)
			}
		}
		b.U16(bitmap)
		for _, c := range v.children {
			if c != nil {
				ch := c.hash()
				b.Raw(ch[:])
			}
		}
		b.Bool(v.value != nil)
		if v.value != nil {
			b.VarBlob(v.value)
		}
	default:
		panic(fmt.Sprintf("mpt: encode of %T", n))
	}
	return b.Bytes()
}

// decodeNode parses a storage-form node, returning it and an estimate
// of its retained in-memory footprint (for cache accounting). Child
// references come back as hashNodes; structural canonicality (no empty
// extension paths, no under-populated branches, no padded lengths or
// paths) is enforced so a corrupted store cannot smuggle in a shape the
// mutation paths never produce.
func decodeNode(enc []byte) (node, int, error) {
	r := wire.NewReader(enc)
	kind := r.U8()
	switch kind {
	case kindLeaf:
		keyEnd, ok := readNibbles(r)
		value := r.VarBlob(maxBlob)
		if err := r.Close(); err != nil {
			return nil, 0, err
		}
		if !ok {
			return nil, 0, fmt.Errorf("mpt: leaf key with a non-zero pad nibble")
		}
		if value == nil {
			value = []byte{} // present-but-empty, distinct from absent
		}
		return &leafNode{keyEnd: keyEnd, value: value},
			96 + len(keyEnd) + len(value), nil
	case kindExt:
		path, ok := readNibbles(r)
		var ch cryptoutil.Hash
		r.Raw(ch[:])
		if err := r.Close(); err != nil {
			return nil, 0, err
		}
		if !ok || len(path) == 0 {
			return nil, 0, fmt.Errorf("mpt: extension with an empty or padded path")
		}
		return &extNode{path: path, child: hashNode(ch)}, 160 + len(path), nil
	case kindBranch:
		bitmap := r.U16()
		br := &branchNode{}
		n := 0
		for i := 0; i < 16; i++ {
			if bitmap&(1<<uint(i)) == 0 {
				continue
			}
			var ch cryptoutil.Hash
			r.Raw(ch[:])
			br.children[i] = hashNode(ch)
			n++
		}
		if r.Bool() {
			v := r.VarBlob(maxBlob)
			if v == nil {
				v = []byte{}
			}
			br.value = v
		}
		if err := r.Close(); err != nil {
			return nil, 0, err
		}
		if n < 2 && !(n == 1 && br.value != nil) {
			return nil, 0, fmt.Errorf("mpt: branch with %d children", n)
		}
		return br, 904 + len(br.value), nil
	default:
		return nil, 0, fmt.Errorf("mpt: unknown node kind %d", kind)
	}
}

// decodeForSource is the DecodeFunc handed to a NodeSource: decode,
// then verify the node's recomputed commitment against the hash it was
// stored under, so a corrupted or substituted record can never enter a
// trie.
func decodeForSource(h cryptoutil.Hash, enc []byte) (any, int, error) {
	n, size, err := decodeNode(enc)
	if err != nil {
		return nil, 0, err
	}
	if n.hash() != h {
		return nil, 0, fmt.Errorf("mpt: node %s fails hash verification", h.Short())
	}
	return n, size, nil
}

// Commit writes every node reachable from the root that the sink does
// not already hold, children before parents and a leaf's Aux before the
// leaf, and returns the root hash. Committing an empty trie writes nothing and returns EmptyRoot.
// The trie itself is unchanged and stays fully usable; pair Commit
// with Load to drop the in-memory node graph after persisting.
func (t *Trie) Commit(sink NodeSink) (cryptoutil.Hash, error) {
	if t.root == nil {
		return EmptyRoot, nil
	}
	return commitNode(t.root, sink)
}

func commitNode(n node, sink NodeSink) (cryptoutil.Hash, error) {
	if hn, ok := n.(hashNode); ok {
		return cryptoutil.Hash(hn), nil // resolved from the store: already persisted
	}
	h := n.hash()
	if sink.Has(h) {
		return h, nil
	}
	switch v := n.(type) {
	case *leafNode:
		if v.aux != nil {
			if err := v.aux.Commit(sink); err != nil {
				return h, err
			}
		}
	case *extNode:
		if _, err := commitNode(v.child, sink); err != nil {
			return h, err
		}
	case *branchNode:
		for _, c := range v.children {
			if c == nil {
				continue
			}
			if _, err := commitNode(c, sink); err != nil {
				return h, err
			}
		}
	}
	if err := sink.Put(h, encodeNode(n)); err != nil {
		return h, err
	}
	return h, nil
}

// WalkNodes visits every node hash reachable from root, parents before
// children, resolving through src. visit returning false prunes the
// subtree below that hash — the pruning mark phase uses this to stop
// at subtrees already marked via another root. leaf, when non-nil, is
// handed every value under a visited node, so the caller can follow
// what the values name. An EmptyRoot walk visits nothing.
func WalkNodes(src NodeSource, root cryptoutil.Hash, visit func(cryptoutil.Hash) bool, leaf func(value []byte) error) error {
	if root == EmptyRoot || root == cryptoutil.ZeroHash {
		return nil
	}
	if !visit(root) {
		return nil
	}
	n, err := resolveNode(src, hashNode(root))
	if err != nil {
		return err
	}
	switch v := n.(type) {
	case *leafNode:
		if leaf != nil {
			return leaf(v.value)
		}
	case *extNode:
		return WalkNodes(src, v.child.hash(), visit, leaf)
	case *branchNode:
		if v.value != nil && leaf != nil {
			if err := leaf(v.value); err != nil {
				return err
			}
		}
		for _, c := range v.children {
			if c == nil {
				continue
			}
			if err := WalkNodes(src, c.hash(), visit, leaf); err != nil {
				return err
			}
		}
	}
	return nil
}

// Leaves calls fn for every key in the trie in ascending key order,
// with its value and companion (see Aux), resolving persisted nodes
// through the trie's source. fn must not retain or modify the slices.
// An error from fn or from a resolution stops the iteration.
func (t *Trie) Leaves(fn func(key, value []byte, aux Aux) error) error {
	return leaves(t.src, t.root, nil, fn)
}

func leaves(src NodeSource, n node, prefix []byte, fn func(key, value []byte, aux Aux) error) error {
	rn, err := resolveNode(src, n)
	if err != nil {
		return err
	}
	switch v := rn.(type) {
	case *leafNode:
		return fn(fromNibbles(concat(prefix, v.keyEnd)), v.value, v.aux)
	case *extNode:
		return leaves(src, v.child, concat(prefix, v.path), fn)
	case *branchNode:
		if v.value != nil {
			if err := fn(fromNibbles(prefix), v.value, nil); err != nil {
				return err
			}
		}
		for i, c := range v.children {
			if c == nil {
				continue
			}
			if err := leaves(src, c, append(prefix[:len(prefix):len(prefix)], byte(i)), fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// fromNibbles packs a whole-byte nibble path back into the key.
func fromNibbles(path []byte) []byte {
	out := make([]byte, len(path)/2)
	for i := range out {
		out[i] = path[2*i]<<4 | path[2*i+1]
	}
	return out
}

// Prove returns a Merkle proof for key: the storage-form nodes along
// the lookup path, root first. The proof ends at the node that decides
// the lookup (a leaf or valued branch for presence, the divergence
// point for absence) and verifies against RootHash with VerifyProof.
// Proving anything against an empty trie yields an empty proof.
func (t *Trie) Prove(key []byte) ([][]byte, error) {
	var proof [][]byte
	n := t.root
	path := toNibbles(key)
	for {
		rn, err := resolveNode(t.src, n)
		if err != nil {
			return nil, err
		}
		if rn == nil {
			return proof, nil
		}
		proof = append(proof, encodeNode(rn))
		switch v := rn.(type) {
		case *leafNode:
			return proof, nil
		case *extNode:
			if len(path) < len(v.path) || !bytes.Equal(path[:len(v.path)], v.path) {
				return proof, nil // diverges here: proof of absence
			}
			path = path[len(v.path):]
			n = v.child
		case *branchNode:
			if len(path) == 0 {
				return proof, nil
			}
			c := v.children[path[0]]
			if c == nil {
				return proof, nil
			}
			path = path[1:]
			n = c
		default:
			return nil, fmt.Errorf("mpt: unknown node %T", rn)
		}
	}
}

// VerifyProof checks a proof produced by Prove against a root hash.
// It returns the proven value and whether the key is present. An error
// means the proof is malformed or does not commit to root — its
// presence claim must not be trusted.
func VerifyProof(root cryptoutil.Hash, key []byte, proof [][]byte) ([]byte, bool, error) {
	path := toNibbles(key)
	if root == EmptyRoot {
		if len(proof) != 0 {
			return nil, false, fmt.Errorf("mpt: non-empty proof against empty root")
		}
		return nil, false, nil
	}
	want := root
	for i, enc := range proof {
		n, _, err := decodeNode(enc)
		if err != nil {
			return nil, false, fmt.Errorf("mpt: proof node %d: %w", i, err)
		}
		if n.hash() != want {
			return nil, false, fmt.Errorf("mpt: proof node %d does not match commitment", i)
		}
		last := i == len(proof)-1
		switch v := n.(type) {
		case *leafNode:
			if !last {
				return nil, false, fmt.Errorf("mpt: proof continues past a leaf")
			}
			if bytes.Equal(v.keyEnd, path) {
				return copyBytes(v.value), true, nil
			}
			return nil, false, nil
		case *extNode:
			if len(path) < len(v.path) || !bytes.Equal(path[:len(v.path)], v.path) {
				if !last {
					return nil, false, fmt.Errorf("mpt: proof continues past divergence")
				}
				return nil, false, nil
			}
			path = path[len(v.path):]
			want = v.child.hash()
		case *branchNode:
			if len(path) == 0 {
				if !last {
					return nil, false, fmt.Errorf("mpt: proof continues past terminal branch")
				}
				if v.value != nil {
					return copyBytes(v.value), true, nil
				}
				return nil, false, nil
			}
			c := v.children[path[0]]
			if c == nil {
				if !last {
					return nil, false, fmt.Errorf("mpt: proof continues past missing child")
				}
				return nil, false, nil
			}
			want = c.hash()
			path = path[1:]
		}
	}
	return nil, false, fmt.Errorf("mpt: truncated proof")
}
