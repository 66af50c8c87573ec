// Package mpt implements a Merkle Patricia trie, the authenticated
// key-value structure Ethereum uses for account state (named in Section
// 5.4 of the paper as one of the data structures scalable ledgers need).
//
// The trie is persistent (path-copying): Set and Delete return logically
// new tries that share unmodified subtrees, which makes state snapshots
// at block boundaries O(1). Its root hash is canonical: it depends only
// on the key-value contents, never on insertion order.
//
// A trie may be fully in-memory (New) or disk-backed (Load with a
// NodeSource, typically *nodestore.Store): subtrees then live as bare
// hash references that resolve lazily on first touch, so a served trie's
// RAM footprint is bounded by the source's cache budget rather than by
// key count. Commit persists exactly the nodes not yet in the sink,
// children before parents, so a torn batch can never strand a reachable
// parent without its child. With a nil source the behavior (and every
// root hash) is identical to the historical in-memory implementation.
package mpt

import (
	"bytes"
	"errors"
	"fmt"

	"dcsledger/internal/cryptoutil"
)

// Trie is a Merkle Patricia trie mapping byte-string keys to byte-string
// values. The zero value is an empty trie ready to use.
type Trie struct {
	root node
	size int
	src  NodeSource
	// loaded is the root this trie, or the one it was derived from, was
	// loaded under (see LoadedFrom).
	loaded cryptoutil.Hash
}

// EmptyRoot is the root hash of an empty trie.
var EmptyRoot = cryptoutil.HashBytes([]byte("mpt/empty"))

// ErrMissingNode reports a hash reference that cannot be resolved:
// either the trie has no NodeSource or the source does not hold the
// node (truncated store, over-aggressive pruning).
var ErrMissingNode = errors.New("mpt: missing node")

// NodeSource resolves a node hash to its decoded node. It is the
// read half of a node store; *nodestore.Store satisfies it. The
// decode callback is invoked on cache misses, and a negative size from
// it asks that the node not be cached; decoded nodes are shared between
// callers and must be treated as immutable.
type NodeSource interface {
	Node(h cryptoutil.Hash, decode func(h cryptoutil.Hash, enc []byte) (v any, size int, err error)) (any, error)
}

// NodeSink receives encoded nodes during Commit. *nodestore.Batch
// satisfies it; Has lets the commit walk skip already-persisted
// subtrees without re-encoding them.
type NodeSink interface {
	Put(h cryptoutil.Hash, enc []byte) error
	Has(h cryptoutil.Hash) bool
}

// Aux is an in-memory companion a caller may attach to a leaf: data the
// value commits to by hash (the account trie hangs a contract's storage
// trie and code here). It is not part of the node's hash or encoding, a
// leaf decoded from a source has none, and it follows its value through
// every restructuring of the trie. Commit persists it before the leaf
// that names it.
type Aux interface {
	Commit(sink NodeSink) error
}

type node interface {
	// hash returns the node's commitment, caching it in the node.
	hash() cryptoutil.Hash
}

type (
	leafNode struct {
		keyEnd []byte // nibbles
		value  []byte
		aux    Aux // in-memory companion of value, nil on decoded leaves
		cached *cryptoutil.Hash
	}
	extNode struct {
		path   []byte // nibbles, len >= 1
		child  node
		cached *cryptoutil.Hash
	}
	branchNode struct {
		children [16]node
		value    []byte // value terminating exactly at this branch
		cached   *cryptoutil.Hash
	}
	// hashNode is an unresolved reference to a persisted node.
	hashNode cryptoutil.Hash
)

func (h hashNode) hash() cryptoutil.Hash { return cryptoutil.Hash(h) }

// New returns an empty in-memory trie.
func New() *Trie { return &Trie{} }

// Load returns a trie rooted at a persisted node: operations resolve
// nodes lazily through src. size is the key count recorded alongside
// the root (Len reports it). Loading EmptyRoot yields an empty trie.
func Load(root cryptoutil.Hash, size int, src NodeSource) *Trie {
	if root == EmptyRoot {
		return &Trie{src: src}
	}
	return &Trie{root: hashNode(root), size: size, src: src, loaded: root}
}

// LoadedFrom returns the root the trie was loaded under, or the trie it
// was derived from was (zero for none): every persisted node the trie
// refers to is reachable from that root, so whoever prunes the source
// keeps a live trie readable by keeping that root.
func (t *Trie) LoadedFrom() cryptoutil.Hash { return t.loaded }

// Len returns the number of keys in the trie.
func (t *Trie) Len() int { return t.size }

// Source returns the node source persisted nodes resolve through (nil
// for an in-memory trie).
func (t *Trie) Source() NodeSource { return t.src }

// Stored reports whether the whole trie lies in its source: nothing of
// it is held here but the root's hash.
func (t *Trie) Stored() bool {
	_, ok := t.root.(hashNode)
	return ok && t.src != nil
}

// Get returns the value stored under key. It panics on a node
// resolution failure, which cannot happen on an in-memory trie;
// disk-backed callers should prefer TryGet.
func (t *Trie) Get(key []byte) ([]byte, bool) {
	v, ok, err := t.TryGet(key)
	if err != nil {
		panic(err)
	}
	return v, ok
}

// TryGet returns the value stored under key, resolving persisted
// nodes through the trie's source. The returned slice is a copy.
func (t *Trie) TryGet(key []byte) ([]byte, bool, error) {
	v, _, ok, err := t.TryGetAux(key)
	return copyBytes(v), ok, err
}

// TryGetAux is TryGet that also returns the leaf's companion (nil when
// none was attached or the leaf came from the source), and returns the
// trie's own value bytes, not a copy: the caller must not modify them.
func (t *Trie) TryGetAux(key []byte) ([]byte, Aux, bool, error) {
	n := t.root
	path := toNibbles(key)
	for {
		rn, err := resolveNode(t.src, n)
		if err != nil {
			return nil, nil, false, err
		}
		switch v := rn.(type) {
		case nil:
			return nil, nil, false, nil
		case *leafNode:
			if bytes.Equal(v.keyEnd, path) {
				return v.value, v.aux, true, nil
			}
			return nil, nil, false, nil
		case *extNode:
			if len(path) < len(v.path) || !bytes.Equal(path[:len(v.path)], v.path) {
				return nil, nil, false, nil
			}
			path = path[len(v.path):]
			n = v.child
		case *branchNode:
			if len(path) == 0 {
				if v.value == nil {
					return nil, nil, false, nil
				}
				return v.value, nil, true, nil
			}
			n = v.children[path[0]]
			path = path[1:]
		default:
			return nil, nil, false, fmt.Errorf("mpt: unknown node %T", rn)
		}
	}
}

// Set stores value under key and returns the updated trie. The receiver
// is unmodified; updated tries share structure with their ancestors.
// A nil or empty value is stored as an empty (but present) value. The
// value is copied, so the caller may reuse its buffer. Panics on a
// node resolution failure (impossible in-memory); see TrySet.
func (t *Trie) Set(key, value []byte) *Trie {
	nt, err := t.TrySet(key, value)
	if err != nil {
		panic(err)
	}
	return nt
}

// TrySet is Set with node-resolution errors reported instead of
// panicking.
func (t *Trie) TrySet(key, value []byte) (*Trie, error) {
	return t.TrySetAux(key, value, nil)
}

// TrySetAux is TrySet that attaches aux to the stored value (see Aux).
// An aux lives on a leaf: a key that is a strict prefix of another key
// cannot carry one.
func (t *Trie) TrySetAux(key, value []byte, aux Aux) (*Trie, error) {
	// Copy: the trie retains the value across versions, so a caller
	// reusing its buffer must never be able to mutate history.
	val := copyBytes(value)
	if val == nil {
		val = []byte{}
	}
	root, replaced, err := insert(t.src, t.root, toNibbles(key), val, aux)
	if err != nil {
		return nil, err
	}
	size := t.size
	if !replaced {
		size++
	}
	return &Trie{root: root, size: size, src: t.src, loaded: t.loaded}, nil
}

// Delete removes key and returns the updated trie; the boolean reports
// whether the key was present. Panics on a node resolution failure
// (impossible in-memory); see TryDelete.
func (t *Trie) Delete(key []byte) (*Trie, bool) {
	nt, deleted, err := t.TryDelete(key)
	if err != nil {
		panic(err)
	}
	return nt, deleted
}

// TryDelete is Delete with node-resolution errors reported instead of
// panicking.
func (t *Trie) TryDelete(key []byte) (*Trie, bool, error) {
	root, deleted, err := remove(t.src, t.root, toNibbles(key))
	if err != nil {
		return nil, false, err
	}
	if !deleted {
		return t, false, nil
	}
	return &Trie{root: root, size: t.size - 1, src: t.src, loaded: t.loaded}, true, nil
}

// RootHash returns the trie's commitment. Equal content always yields
// equal roots regardless of the operation order that produced it.
func (t *Trie) RootHash() cryptoutil.Hash {
	if t.root == nil {
		return EmptyRoot
	}
	return t.root.hash()
}

// resolveNode materializes a hashNode through src; every other node
// (including nil) passes through untouched.
func resolveNode(src NodeSource, n node) (node, error) {
	hn, ok := n.(hashNode)
	if !ok {
		return n, nil
	}
	nd, _, err := resolveStored(src, cryptoutil.Hash(hn), maxDeltaDepth, true)
	return nd, err
}

// insert returns the subtree with value stored under path, and whether
// it replaced a value already there.
func insert(src NodeSource, n node, path []byte, value []byte, aux Aux) (node, bool, error) {
	rn, err := resolveNode(src, n)
	if err != nil {
		return nil, false, err
	}
	switch v := rn.(type) {
	case nil:
		return &leafNode{keyEnd: path, value: value, aux: aux}, false, nil
	case *leafNode:
		cp := commonPrefix(v.keyEnd, path)
		if cp == len(v.keyEnd) && cp == len(path) {
			return &leafNode{keyEnd: path, value: value, aux: aux}, true, nil
		}
		br := &branchNode{}
		attach(br, v.keyEnd[cp:], v.value, v.aux)
		attach(br, path[cp:], value, aux)
		return wrapExt(path[:cp], br), false, nil
	case *extNode:
		cp := commonPrefix(v.path, path)
		if cp == len(v.path) {
			child, replaced, err := insert(src, v.child, path[cp:], value, aux)
			if err != nil {
				return nil, false, err
			}
			return &extNode{path: v.path, child: child}, replaced, nil
		}
		br := &branchNode{}
		// Remainder of the extension's own path.
		rest := v.path[cp:]
		if len(rest) == 1 {
			br.children[rest[0]] = v.child
		} else {
			br.children[rest[0]] = &extNode{path: rest[1:], child: v.child}
		}
		attach(br, path[cp:], value, aux)
		return wrapExt(path[:cp], br), false, nil
	case *branchNode:
		nb := v.clone()
		if len(path) == 0 {
			nb.value = value
			return nb, v.value != nil, nil
		}
		child, replaced, err := insert(src, v.children[path[0]], path[1:], value, aux)
		if err != nil {
			return nil, false, err
		}
		nb.children[path[0]] = child
		return nb, replaced, nil
	default:
		return nil, false, fmt.Errorf("mpt: unknown node %T", rn)
	}
}

// attach places a value reachable from br along the (possibly empty)
// remaining path.
func attach(br *branchNode, path []byte, value []byte, aux Aux) {
	if len(path) == 0 {
		br.value = value
		return
	}
	br.children[path[0]] = &leafNode{keyEnd: path[1:], value: value, aux: aux}
}

func wrapExt(prefix []byte, n node) node {
	if len(prefix) == 0 {
		return n
	}
	return &extNode{path: prefix, child: n}
}

func remove(src NodeSource, n node, path []byte) (node, bool, error) {
	rn, err := resolveNode(src, n)
	if err != nil {
		return nil, false, err
	}
	switch v := rn.(type) {
	case nil:
		return nil, false, nil
	case *leafNode:
		if bytes.Equal(v.keyEnd, path) {
			return nil, true, nil
		}
		return n, false, nil
	case *extNode:
		if len(path) < len(v.path) || !bytes.Equal(path[:len(v.path)], v.path) {
			return n, false, nil
		}
		child, deleted, err := remove(src, v.child, path[len(v.path):])
		if err != nil {
			return nil, false, err
		}
		if !deleted {
			return n, false, nil
		}
		nn, err := collapseExt(src, v.path, child)
		return nn, true, err
	case *branchNode:
		nb := v.clone()
		if len(path) == 0 {
			if v.value == nil {
				return n, false, nil
			}
			nb.value = nil
		} else {
			child, deleted, err := remove(src, v.children[path[0]], path[1:])
			if err != nil {
				return nil, false, err
			}
			if !deleted {
				return n, false, nil
			}
			nb.children[path[0]] = child
		}
		nn, err := collapseBranch(src, nb)
		return nn, true, err
	default:
		return nil, false, fmt.Errorf("mpt: unknown node %T", rn)
	}
}

// collapseExt merges an extension with its (possibly simplified) child.
// The child must be resolved to learn its kind: an extension whose
// child is a leaf or extension is non-canonical and would change the
// root hash.
func collapseExt(src NodeSource, prefix []byte, child node) (node, error) {
	rc, err := resolveNode(src, child)
	if err != nil {
		return nil, err
	}
	switch c := rc.(type) {
	case nil:
		return nil, nil
	case *leafNode:
		return &leafNode{keyEnd: concat(prefix, c.keyEnd), value: c.value, aux: c.aux}, nil
	case *extNode:
		return &extNode{path: concat(prefix, c.path), child: c.child}, nil
	default:
		// Branch: keep the original reference (a hashNode stays a
		// cheap already-persisted pointer for the next Commit).
		return &extNode{path: prefix, child: child}, nil
	}
}

// collapseBranch simplifies a branch that lost entries: a branch with only
// a value becomes a leaf; a branch with a single child merges into it.
func collapseBranch(src NodeSource, b *branchNode) (node, error) {
	var (
		count   int
		onlyIdx int
	)
	for i, c := range b.children {
		if c != nil {
			count++
			onlyIdx = i
		}
	}
	switch {
	case count == 0 && b.value == nil:
		return nil, nil
	case count == 0:
		return &leafNode{keyEnd: nil, value: b.value}, nil
	case count == 1 && b.value == nil:
		return collapseExt(src, []byte{byte(onlyIdx)}, b.children[onlyIdx])
	default:
		return b, nil
	}
}

// Node hashing. Child references are child hashes; content prefixes keep
// the three node kinds in distinct hash domains.

func (l *leafNode) hash() cryptoutil.Hash {
	if l.cached != nil {
		return *l.cached
	}
	h := cryptoutil.HashBytes([]byte{2}, encLen(l.keyEnd), l.keyEnd, encLen(l.value), l.value)
	l.cached = &h
	return h
}

func (e *extNode) hash() cryptoutil.Hash {
	if e.cached != nil {
		return *e.cached
	}
	ch := e.child.hash()
	h := cryptoutil.HashBytes([]byte{1}, encLen(e.path), e.path, ch[:])
	e.cached = &h
	return h
}

func (b *branchNode) hash() cryptoutil.Hash {
	if b.cached != nil {
		return *b.cached
	}
	parts := make([][]byte, 0, 18)
	parts = append(parts, []byte{0})
	for _, c := range b.children {
		if c == nil {
			parts = append(parts, cryptoutil.ZeroHash[:])
			continue
		}
		ch := c.hash()
		parts = append(parts, append([]byte(nil), ch[:]...))
	}
	if b.value != nil {
		parts = append(parts, []byte{1}, b.value)
	} else {
		parts = append(parts, []byte{0})
	}
	h := cryptoutil.HashBytes(parts...)
	b.cached = &h
	return h
}

func (b *branchNode) clone() *branchNode {
	nb := &branchNode{value: b.value}
	nb.children = b.children
	return nb
}

func toNibbles(key []byte) []byte {
	out := make([]byte, 0, len(key)*2)
	for _, b := range key {
		out = append(out, b>>4, b&0x0f)
	}
	return out
}

func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func concat(a, b []byte) []byte {
	out := make([]byte, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func copyBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func encLen(b []byte) []byte {
	n := len(b)
	return []byte{byte(n >> 16), byte(n >> 8), byte(n)}
}
