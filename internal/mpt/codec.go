package mpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

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
//	stored: u8 kind=4 | u16 present | u16 inline ⊆ present
//	        | per present child, ascending: inline ? (nibbles keyEnd
//	        | uvarint len | value) : 32B hash | bool hasValue
//	        | uvarint len | value (if hasValue)
//	delta:  u8 kind=3 | 32B base hash | u16 present | u16 differ
//	        | u16 inline ⊆ differ | u16 sameKey ⊆ inline
//	        | per differ child, ascending: sameKey ? (uvarint len | value)
//	        : inline ? (nibbles keyEnd | uvarint len | value) : 32B hash
//	        | bool hasValue | uvarint len | value (if hasValue)
//	nibbles: uvarint count | ceil(count/2) bytes, high nibble first,
//	        the low nibble of the last byte zero when count is odd
//
// A store holds a branch as kind 4 or 3, never 0, the proof form: a leaf
// child is written inside its parent's record (inline), so only a trie
// whose root is a leaf has a leaf record. A delta is a branch against its
// base, the branch it replaces: differ marks the children whose hash is
// not the base's, and sameKey the inline leaves under the key of the
// base's inline leaf there, spelled by their value alone. Commit writes
// one when shorter than the full record and it keeps two children, at
// most maxDeltaDepth deltas from a full branch. A proof carries kinds
// 0 to 2; decodeNode refuses 3 and 4.

const (
	kindBranch = 0
	kindExt    = 1
	kindLeaf   = 2
	kindDelta  = 3
	kindStored = 4
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

// readValue reads a leaf's value: present, so never nil.
func readValue(r *wire.Reader) []byte {
	if v := r.VarBlob(maxBlob); v != nil {
		return v
	}
	return []byte{}
}

// encodeNode renders a resolved node in proof form.
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
		present, _ := masks(v)
		b.U16(present)
		putBranch(&b, v, present, 0, 0)
	default:
		panic(fmt.Sprintf("mpt: encode of %T", n))
	}
	return b.Bytes()
}

// encodeStored renders a resolved node as a store holds it: a branch as
// kind 4, its leaf children inline; any other node in proof form.
func encodeStored(n node) []byte {
	v, ok := n.(*branchNode)
	if !ok {
		return encodeNode(n)
	}
	var b wire.Buffer
	b.U8(kindStored)
	present, inline := masks(v)
	b.U16(present)
	b.U16(inline)
	putBranch(&b, v, present, inline, 0)
	return b.Bytes()
}

// masks returns the bitmaps of v's children and of those that are leaves.
func masks(v *branchNode) (present, leaves uint16) {
	for i, c := range v.children {
		if c != nil {
			present |= 1 << uint(i)
		}
		if _, ok := c.(*leafNode); ok {
			leaves |= 1 << uint(i)
		}
	}
	return present, leaves
}

// putBranch appends v's children in mask, ascending — a value alone if in
// same, a leaf if in inline, else a hash — then v's value.
func putBranch(b *wire.Buffer, v *branchNode, mask, inline, same uint16) {
	for i, c := range v.children {
		switch bit := uint16(1) << uint(i); {
		case mask&bit == 0:
		case same&bit != 0:
			b.VarBlob(c.(*leafNode).value)
		case inline&bit != 0:
			putNibbles(b, c.(*leafNode).keyEnd)
			b.VarBlob(c.(*leafNode).value)
		default:
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
// or returns nil when it would keep fewer than two of base's children.
func encodeDelta(v, base *branchNode, baseHash cryptoutil.Hash) []byte {
	var present, differ, inline, same uint16
	for i, c := range v.children {
		if c == nil {
			continue
		}
		bit := uint16(1) << uint(i)
		present |= bit
		bc := base.children[i]
		if bc != nil && bc.hash() == c.hash() {
			continue
		}
		differ |= bit
		if l, ok := c.(*leafNode); ok {
			inline |= bit
			if bl, ok := bc.(*leafNode); ok && bytes.Equal(bl.keyEnd, l.keyEnd) {
				same |= bit
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
	b.U16(inline)
	b.U16(same)
	putBranch(&b, v, differ, inline, same)
	return b.Bytes()
}

// IsDelta reports whether enc, a node in storage form, is a delta.
func IsDelta(enc []byte) bool { return len(enc) > 0 && enc[0] == kindDelta }

// InlineLeaves returns how many leaves enc, a node in storage form,
// spells inside it.
func InlineLeaves(enc []byte) int {
	switch {
	case len(enc) >= 5 && enc[0] == kindStored:
		return bits.OnesCount16(binary.BigEndian.Uint16(enc[3:]))
	case len(enc) >= 39 && enc[0] == kindDelta:
		return bits.OnesCount16(binary.BigEndian.Uint16(enc[37:]))
	}
	return 0
}

// decodeNode parses a proof-form node. Child references come back as
// hashNodes; structural canonicality (no empty extension paths, no
// under-populated branches, no padded lengths or paths) is enforced so
// a corrupted store cannot smuggle in a shape the mutation paths never
// produce. The stored kinds 3 and 4 are refused.
func decodeNode(enc []byte) (node, error) {
	r := wire.NewReader(enc)
	kind := r.U8()
	switch kind {
	case kindLeaf:
		keyEnd, ok := readNibbles(r)
		value := readValue(r)
		if err := r.Close(); err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("mpt: leaf key with a non-zero pad nibble")
		}
		return &leafNode{keyEnd: keyEnd, value: value}, nil
	case kindExt:
		path, ok := readNibbles(r)
		var ch cryptoutil.Hash
		r.Raw(ch[:])
		if err := r.Close(); err != nil {
			return nil, err
		}
		if !ok || len(path) == 0 {
			return nil, fmt.Errorf("mpt: extension with an empty or padded path")
		}
		return &extNode{path: path, child: hashNode(ch)}, nil
	case kindBranch:
		return readBranch(r, r.U16(), 0)
	default:
		return nil, fmt.Errorf("mpt: unknown node kind %d", kind)
	}
}

// readBranch reads the rest of a full branch of these children, those in
// inline spelled as leaves.
func readBranch(r *wire.Reader, present, inline uint16) (*branchNode, error) {
	if inline&^present != 0 {
		return nil, fmt.Errorf("mpt: inline children not all present")
	}
	br := &branchNode{}
	for i := range br.children {
		if bit := uint16(1) << uint(i); present&bit != 0 {
			c, err := readChild(r, inline&bit != 0, nil)
			if err != nil {
				return nil, err
			}
			br.children[i] = c
		}
	}
	if r.Bool() {
		br.value = append([]byte{}, r.VarBlob(maxBlob)...)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	if n := bits.OnesCount16(present); n < 2 && !(n == 1 && br.value != nil) {
		return nil, fmt.Errorf("mpt: branch with %d children", n)
	}
	return br, nil
}

// readChild reads one child of a branch record: the value of a leaf
// under same's key, when same is not nil; an inline leaf; or a hash.
func readChild(r *wire.Reader, inline bool, same *leafNode) (node, error) {
	switch {
	case same != nil:
		return &leafNode{keyEnd: same.keyEnd, value: readValue(r)}, nil
	case inline:
		keyEnd, ok := readNibbles(r)
		if !ok {
			return nil, fmt.Errorf("mpt: inline leaf key with a non-zero pad nibble")
		}
		return &leafNode{keyEnd: keyEnd, value: readValue(r)}, nil
	}
	var ch cryptoutil.Hash
	r.Raw(ch[:])
	return hashNode(ch), nil
}

// deltaNode is a delta record as a source caches it: its base's hash, and
// its branch, built against the base, at its chain depth.
type deltaNode struct {
	base   cryptoutil.Hash
	branch *branchNode
	depth  int
}

// buildDelta builds the delta enc against its base, read through src;
// budget is how many more deltas may lie below. A chain too deep, a base
// not a branch, and a delta that is not its branch's one spelling against
// the base are errors.
func buildDelta(src NodeSource, enc []byte, budget int) (*deltaNode, error) {
	r := wire.NewReader(enc[1:])
	d := &deltaNode{depth: 1}
	r.Raw(d.base[:])
	present, differ, inline, same := r.U16(), r.U16(), r.U16(), r.U16()
	if budget == 0 {
		return nil, fmt.Errorf("on a chain deeper than %d", maxDeltaDepth)
	}
	bn, bd, err := resolveStored(src, d.base, budget-1, false)
	if err != nil {
		return nil, fmt.Errorf("base %s: %w", d.base.Short(), err)
	}
	base, ok := bn.(*branchNode)
	if bd != nil {
		d.depth += bd.depth
	}
	switch {
	case !ok:
		return nil, fmt.Errorf("base %s is a %T, not a branch", d.base.Short(), bn)
	case d.depth > maxDeltaDepth:
		return nil, fmt.Errorf("on a chain deeper than %d", maxDeltaDepth)
	case differ&^present != 0:
		return nil, fmt.Errorf("differing children not all present")
	case inline&^differ != 0:
		return nil, fmt.Errorf("inline children not all differing")
	case same&^inline != 0:
		return nil, fmt.Errorf("children spelled by value not all inline")
	}
	br, kept := &branchNode{}, 0
	for i, bc := range base.children {
		switch bit := uint16(1) << uint(i); {
		case differ&bit != 0:
			bl, _ := bc.(*leafNode)
			var under *leafNode
			if same&bit != 0 {
				if under = bl; under == nil {
					return nil, fmt.Errorf("child %d is spelled by value, and its base's is not a leaf", i)
				}
			}
			c, err := readChild(r, inline&bit != 0, under)
			if err != nil {
				return nil, err
			}
			l, _ := c.(*leafNode)
			switch {
			case bc != nil && bc.hash() == c.hash():
				return nil, fmt.Errorf("child %d repeats its base's", i)
			case same&bit == 0 && l != nil && bl != nil && bytes.Equal(l.keyEnd, bl.keyEnd):
				return nil, fmt.Errorf("child %d spells its base's key", i)
			}
			br.children[i] = c
		case present&bit == 0:
		case bc == nil:
			return nil, fmt.Errorf("keeps child %d, which its base lacks", i)
		default:
			br.children[i] = bc
			kept++
		}
	}
	if r.Bool() {
		br.value = append([]byte{}, r.VarBlob(maxBlob)...)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	if kept < 2 {
		return nil, fmt.Errorf("keeps %d children of its base, not shorter than its branch", kept)
	}
	d.branch = br
	return d, nil
}

// resolveStored returns the node src holds under h, checked against h,
// and its record d if a delta, built against its base; budget is how many
// deltas may lie below it, and cache whether src may keep what it decodes
// (a base is read only for what is built from it).
func resolveStored(src NodeSource, h cryptoutil.Hash, budget int, cache bool) (nd node, d *deltaNode, err error) {
	if src == nil {
		return nil, nil, fmt.Errorf("%w: %s (no source)", ErrMissingNode, h.Short())
	}
	v, err := src.Node(h, func(h cryptoutil.Hash, enc []byte) (any, int, error) {
		v, size, err := decodeStored(src, h, enc, budget)
		if !cache {
			size = -1
		}
		return v, size, err
	})
	if err != nil {
		return nil, nil, err
	}
	switch v := v.(type) {
	case node:
		return v, nil, nil
	case *deltaNode:
		return v.branch, v, nil
	}
	return nil, nil, fmt.Errorf("mpt: source returned %T for %s", v, h.Short())
}

// decodeStored decodes a record as a source holds it under h, a delta
// built against its base read through src, then verifies the node's
// recomputed commitment against h, so a corrupted or substituted record
// can never enter a trie; one check covers a branch's inline leaves. It
// returns the node, or a delta's record, and an estimate of what that
// retains in memory, for cache accounting.
func decodeStored(src NodeSource, h cryptoutil.Hash, enc []byte, budget int) (any, int, error) {
	var n node
	var d *deltaNode
	var err error
	switch {
	case IsDelta(enc):
		if d, err = buildDelta(src, enc, budget); err != nil {
			return nil, 0, fmt.Errorf("mpt: delta %s: %w", h.Short(), err)
		}
		n = d.branch
	case len(enc) > 0 && enc[0] == kindStored:
		r := wire.NewReader(enc[1:])
		n, err = readBranch(r, r.U16(), r.U16())
	case len(enc) > 0 && enc[0] == kindBranch:
		err = fmt.Errorf("mpt: a branch in proof form is not a stored record")
	default:
		n, err = decodeNode(enc)
	}
	if err != nil {
		return nil, 0, err
	}
	if n.hash() != h {
		return nil, 0, fmt.Errorf("mpt: node %s fails hash verification", h.Short())
	}
	if d != nil {
		return d, 64 + footprint(n), nil
	}
	return n, footprint(n), nil
}

// footprint estimates what a decoded node retains in memory: a branch
// counts the leaves it holds, its own or kept from a base.
func footprint(n node) int {
	switch v := n.(type) {
	case *leafNode:
		return 128 + len(v.keyEnd) + len(v.value)
	case *extNode:
		return 160 + len(v.path)
	case *branchNode:
		size := 904 + len(v.value)
		for _, c := range v.children {
			if l, ok := c.(*leafNode); ok {
				size += footprint(l)
			}
		}
		return size
	}
	return 0
}

// Commit writes every node reachable from the root that the sink does
// not already hold, children before parents and a leaf's Aux before the
// leaf, and returns the root hash. Committing an empty trie writes nothing and returns EmptyRoot.
// A leaf is written inside its parent branch's record, and a branch is a
// delta against the one at its path in the trie it was loaded under when
// that is shorter. The trie itself is unchanged and stays fully usable;
// pair Commit with Load to drop the in-memory node graph after persisting.
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
	enc := encodeStored(n)
	switch v := n.(type) {
	case *leafNode: // the root: any other leaf is its parent's
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
			var oc node
			if base != nil {
				oc = base.children[i]
			}
			if err := commitChild(src, c, oc, sink); err != nil {
				return h, err
			}
		}
		if base != nil && depth < maxDeltaDepth {
			if d := encodeDelta(v, base, old.hash()); d != nil && len(d) < len(enc) {
				enc = d
			}
		}
	}
	if err := sink.Put(h, enc); err != nil {
		return h, err
	}
	return h, nil
}

// commitChild commits what a branch's child c needs ahead of the branch:
// a leaf, written inside the branch, only its Aux.
func commitChild(src NodeSource, c, old node, sink NodeSink) error {
	switch v := c.(type) {
	case nil:
		return nil
	case *leafNode:
		if v.aux == nil {
			return nil
		}
		return v.aux.Commit(sink)
	}
	_, err := commitNode(src, c, old, sink)
	return err
}

// stored returns old, a persisted node or nil, resolved (nil when it does
// not: then no base) and its record's chain depth.
func stored(src NodeSource, old node) (nd node, depth int) {
	if hn, ok := old.(hashNode); ok {
		var d *deltaNode
		if nd, d, _ = resolveStored(src, cryptoutil.Hash(hn), maxDeltaDepth, false); d != nil {
			depth = d.depth
		}
	}
	return nd, depth
}

// WalkNodes visits every record hash reachable from root, parents before
// children, resolving through src. visit returning false prunes the
// subtree below that hash — the pruning mark phase uses this to stop
// at subtrees already marked via another root. base, when non-nil, is
// handed the bases a visited node's delta chain reads through, top down,
// their subtrees unwalked; false stops the chain. leaf, when non-nil, is
// handed every value under a visited node, so the caller can follow
// what the values name. A leaf inside its parent's record is no record:
// its value goes to leaf, its hash to nobody. An EmptyRoot walk visits
// nothing.
func WalkNodes(src NodeSource, root cryptoutil.Hash, visit, base func(cryptoutil.Hash) bool, leaf func(value []byte) error) error {
	if root == EmptyRoot || root == cryptoutil.ZeroHash {
		return nil
	}
	if !visit(root) {
		return nil
	}
	n, d, err := resolveStored(src, root, maxDeltaDepth, true)
	for err == nil && d != nil && base != nil && base(d.base) {
		_, d, err = resolveStored(src, d.base, maxDeltaDepth, false)
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
			var err error
			switch c := c.(type) {
			case nil:
			case *leafNode:
				if leaf != nil {
					err = leaf(c.value)
				}
			default:
				err = WalkNodes(src, c.hash(), visit, base, leaf)
			}
			if err != nil {
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
		n, err := decodeNode(enc)
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
