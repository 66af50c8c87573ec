package mpt

import (
	"bytes"
	"fmt"
	"math/bits"
	"sync/atomic"

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
//	delta:  u8 kind=3 | 32B base hash | u16 present | u16 differ
//	        | 32B per differ child (ascending) | bool hasValue
//	        | uvarint len | value (if hasValue)
//	nibbles: uvarint count | ceil(count/2) bytes, high nibble first,
//	        the low nibble of the last byte zero when count is odd
//
// A delta is a branch against its base, the branch it replaces: differ
// marks the children whose hash is not the base's. Commit writes one when
// shorter (two children kept), at most maxDeltaDepth deltas from a full
// branch. A proof carries full nodes; decodeNode refuses kind 3.

const (
	kindBranch = 0
	kindExt    = 1
	kindLeaf   = 2
	kindDelta  = 3
	// maxDeltaDepth bounds a chain of deltas down to a full branch.
	maxDeltaDepth = 3

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
		putBranch(&b, v, bitmap)
	default:
		panic(fmt.Sprintf("mpt: encode of %T", n))
	}
	return b.Bytes()
}

// putBranch appends the hashes of v's children in mask, ascending, then
// v's value.
func putBranch(b *wire.Buffer, v *branchNode, mask uint16) {
	for i, c := range v.children {
		if mask&(1<<uint(i)) != 0 {
			ch := c.hash()
			b.Raw(ch[:])
		}
	}
	b.Bool(v.value != nil)
	if v.value != nil {
		b.VarBlob(v.value)
	}
}

// encodeDelta renders v as a delta against base, stored under baseHash,
// or returns nil when the full form is not longer.
func encodeDelta(v, base *branchNode, baseHash cryptoutil.Hash) []byte {
	var present, differ uint16
	for i, c := range v.children {
		if c != nil {
			present |= 1 << uint(i)
			if base.children[i] == nil || base.children[i].hash() != c.hash() {
				differ |= 1 << uint(i)
			}
		}
	}
	if bits.OnesCount16(present)-bits.OnesCount16(differ) < 2 {
		return nil
	}
	var b wire.Buffer
	b.U8(kindDelta)
	b.Raw(baseHash[:])
	b.U16(present)
	b.U16(differ)
	putBranch(&b, v, differ)
	return b.Bytes()
}

// IsDelta reports whether enc, a node in storage form, is a delta.
func IsDelta(enc []byte) bool { return len(enc) > 0 && enc[0] == kindDelta }

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
			br.value = append([]byte{}, r.VarBlob(maxBlob)...)
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

// deltaNode is a delta record as a source caches it, and once built, its
// branch and chain depth. Two racing builds build the same branch.
type deltaNode struct {
	enc   []byte
	built atomic.Pointer[branchNode]
	depth atomic.Int32
}

// branch builds d's branch against its base, read through src, and
// returns it with d's chain depth; budget is how many more deltas may lie
// below. A chain too deep, a base not a branch, and a delta that is not
// its branch's one spelling against the base are errors.
func (d *deltaNode) branch(src NodeSource, budget int) (*branchNode, int, error) {
	r := wire.NewReader(d.enc[1:])
	var baseHash cryptoutil.Hash
	r.Raw(baseHash[:])
	present, differ := r.U16(), r.U16()
	if budget == 0 {
		return nil, 0, fmt.Errorf("on a chain deeper than %d", maxDeltaDepth)
	}
	bn, bd, err := resolveStored(src, baseHash, budget-1, decodeOnce)
	if err != nil {
		return nil, 0, fmt.Errorf("base %s: %w", baseHash.Short(), err)
	}
	base, ok := bn.(*branchNode)
	depth := 1
	if bd != nil {
		depth += int(bd.depth.Load())
	}
	switch {
	case !ok:
		return nil, 0, fmt.Errorf("base %s is a %T, not a branch", baseHash.Short(), bn)
	case depth > maxDeltaDepth:
		return nil, 0, fmt.Errorf("on a chain deeper than %d", maxDeltaDepth)
	case differ&^present != 0:
		return nil, 0, fmt.Errorf("differing children not all present")
	}
	br, kept := &branchNode{}, 0
	for i, bc := range base.children {
		switch bit := uint16(1) << uint(i); {
		case differ&bit != 0:
			var ch cryptoutil.Hash
			if r.Raw(ch[:]); bc != nil && bc.hash() == ch {
				return nil, 0, fmt.Errorf("child %d repeats its base's", i)
			}
			br.children[i] = hashNode(ch)
		case present&bit == 0:
		case bc == nil:
			return nil, 0, fmt.Errorf("keeps child %d, which its base lacks", i)
		default:
			br.children[i] = bc
			kept++
		}
	}
	if r.Bool() {
		br.value = append([]byte{}, r.VarBlob(maxBlob)...)
	}
	if err := r.Close(); err != nil {
		return nil, 0, err
	}
	if kept < 2 {
		return nil, 0, fmt.Errorf("keeps %d children of its base, not shorter than its branch", kept)
	}
	return br, depth, nil
}

// resolveStored returns the node src holds under h, decoded by decode,
// and its record d if a delta, built the first time, checked against h.
func resolveStored(src NodeSource, h cryptoutil.Hash, budget int, decode func(cryptoutil.Hash, []byte) (any, int, error)) (nd node, d *deltaNode, err error) {
	if src == nil {
		return nil, nil, fmt.Errorf("%w: %s (no source)", ErrMissingNode, h.Short())
	}
	v, err := src.Node(h, decode)
	if err != nil {
		return nil, nil, err
	}
	switch v := v.(type) {
	case node:
		return v, nil, nil
	case *deltaNode:
		if br := v.built.Load(); br != nil {
			return br, v, nil
		}
		br, depth, err := v.branch(src, budget)
		if err == nil && br.hash() != h {
			err = fmt.Errorf("fails hash verification")
		}
		if err != nil {
			return nil, nil, fmt.Errorf("mpt: delta %s: %w", h.Short(), err)
		}
		v.depth.Store(int32(depth))
		v.built.Store(br)
		return br, v, nil
	}
	return nil, nil, fmt.Errorf("mpt: source returned %T for %s", v, h.Short())
}

// decodeForSource is the DecodeFunc handed to a NodeSource: decode,
// then verify the node's recomputed commitment against the hash it was
// stored under, so a corrupted or substituted record can never enter a
// trie; a delta's is verified when resolveStored builds it.
func decodeForSource(h cryptoutil.Hash, enc []byte) (any, int, error) {
	if IsDelta(enc) {
		return &deltaNode{enc: bytes.Clone(enc)}, 1000 + len(enc), nil
	}
	n, size, err := decodeNode(enc)
	if err != nil {
		return nil, 0, err
	}
	if n.hash() != h {
		return nil, 0, fmt.Errorf("mpt: node %s fails hash verification", h.Short())
	}
	return n, size, nil
}

// decodeOnce is decodeForSource for a base, read only for what is built
// from it: the source is asked not to cache it.
func decodeOnce(h cryptoutil.Hash, enc []byte) (any, int, error) {
	v, _, err := decodeForSource(h, enc)
	return v, -1, err
}

// Commit writes every node reachable from the root that the sink does
// not already hold, children before parents and a leaf's Aux before the
// leaf, and returns the root hash. Committing an empty trie writes nothing and returns EmptyRoot.
// A branch is a delta against the one at its path in the trie it was
// loaded under. The trie itself is unchanged and stays fully usable; pair Commit
// with Load to drop the in-memory node graph after persisting.
func (t *Trie) Commit(sink NodeSink) (cryptoutil.Hash, error) {
	if t.root == nil {
		return EmptyRoot, nil
	}
	var old node
	if t.src != nil && !t.loaded.IsZero() {
		old = hashNode(t.loaded)
	}
	return commitNode(t.src, t.root, old, sink)
}

// commitNode commits n; old is the persisted node at n's path in the
// trie n's was loaded under, nil for none.
func commitNode(src NodeSource, n, old node, sink NodeSink) (cryptoutil.Hash, error) {
	if hn, ok := n.(hashNode); ok {
		return cryptoutil.Hash(hn), nil // resolved from the store: already persisted
	}
	h := n.hash()
	if sink.Has(h) {
		return h, nil
	}
	var enc []byte
	switch v := n.(type) {
	case *leafNode:
		if v.aux != nil {
			if err := v.aux.Commit(sink); err != nil {
				return h, err
			}
		}
	case *extNode:
		var oc node
		on, _ := stored(src, old)
		if oe, ok := on.(*extNode); ok && bytes.Equal(oe.path, v.path) {
			oc = oe.child
		}
		if _, err := commitNode(src, v.child, oc, sink); err != nil {
			return h, err
		}
	case *branchNode:
		ob, depth := stored(src, old)
		base, _ := ob.(*branchNode)
		for i, c := range v.children {
			if c == nil {
				continue
			}
			var oc node
			if base != nil {
				oc = base.children[i]
			}
			if _, err := commitNode(src, c, oc, sink); err != nil {
				return h, err
			}
		}
		if base != nil && depth < maxDeltaDepth {
			enc = encodeDelta(v, base, old.hash())
		}
	}
	if enc == nil {
		enc = encodeNode(n)
	}
	if err := sink.Put(h, enc); err != nil {
		return h, err
	}
	return h, nil
}

// stored returns old, a persisted node or nil, resolved (nil when it does
// not: then no base) and its record's chain depth.
func stored(src NodeSource, old node) (nd node, depth int) {
	if hn, ok := old.(hashNode); ok {
		var d *deltaNode
		if nd, d, _ = resolveStored(src, cryptoutil.Hash(hn), maxDeltaDepth, decodeOnce); d != nil {
			depth = int(d.depth.Load())
		}
	}
	return nd, depth
}

// WalkNodes visits every node hash reachable from root, parents before
// children, resolving through src. visit returning false prunes the
// subtree below that hash — the pruning mark phase uses this to stop
// at subtrees already marked via another root. base, when non-nil, is
// handed the bases a visited node's delta chain reads through, top down,
// their subtrees unwalked; false stops the chain. leaf, when non-nil, is
// handed every value under a visited node, so the caller can follow
// what the values name. An EmptyRoot walk visits nothing.
func WalkNodes(src NodeSource, root cryptoutil.Hash, visit, base func(cryptoutil.Hash) bool, leaf func(value []byte) error) error {
	if root == EmptyRoot || root == cryptoutil.ZeroHash {
		return nil
	}
	if !visit(root) {
		return nil
	}
	n, d, err := resolveStored(src, root, maxDeltaDepth, decodeForSource)
	for err == nil && d != nil && base != nil && base(cryptoutil.Hash(d.enc[1:33])) {
		_, d, err = resolveStored(src, cryptoutil.Hash(d.enc[1:33]), maxDeltaDepth, decodeOnce)
	}
	if err != nil {
		return err
	}
	switch v := n.(type) {
	case *leafNode:
		if leaf != nil {
			return leaf(v.value)
		}
	case *extNode:
		return WalkNodes(src, v.child.hash(), visit, base, leaf)
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
			if err := WalkNodes(src, c.hash(), visit, base, leaf); err != nil {
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
