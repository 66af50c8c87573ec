package mpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/nodestore"
)

func openStore(t *testing.T) *nodestore.Store {
	t.Helper()
	s, err := nodestore.Open(t.TempDir(), nodestore.Options{Sync: nodestore.SyncNever})
	if err != nil {
		t.Fatalf("nodestore.Open: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func commitTrie(t *testing.T, tr *Trie, s *nodestore.Store, height uint64) cryptoutil.Hash {
	t.Helper()
	b := s.NewBatch(height)
	root, err := tr.Commit(b)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("batch.Commit: %v", err)
	}
	if root != tr.RootHash() {
		t.Fatalf("Commit root %s != RootHash %s", root.Short(), tr.RootHash().Short())
	}
	return root
}

func TestCommitLoadRoundTrip(t *testing.T) {
	s := openStore(t)
	tr := New()
	want := map[string][]byte{}
	for i := 0; i < 300; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v := []byte(fmt.Sprintf("val-%d", i*i))
		tr = tr.Set(k, v)
		want[string(k)] = v
	}
	root := commitTrie(t, tr, s, 1)

	// A fresh trie holding nothing but the root hash must serve
	// every key through the store.
	lt := Load(root, tr.Len(), s)
	if lt.Len() != 300 {
		t.Fatalf("loaded Len = %d", lt.Len())
	}
	if lt.RootHash() != root {
		t.Fatalf("loaded root %s != %s", lt.RootHash().Short(), root.Short())
	}
	for k, v := range want {
		got, ok, err := lt.TryGet([]byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("TryGet(%s) = %q,%v,%v", k, got, ok, err)
		}
	}
	if _, ok, err := lt.TryGet([]byte("absent")); err != nil || ok {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
}

func TestCommitWritesOnlyNewNodes(t *testing.T) {
	s := openStore(t)
	tr := New()
	for i := 0; i < 200; i++ {
		tr = tr.Set([]byte(fmt.Sprintf("k%04d", i)), []byte{byte(i)})
	}
	commitTrie(t, tr, s, 1)
	base := s.Stats().Appends

	// One more key: the second commit must write only the spine the
	// insert touched, not the whole trie again.
	tr2 := tr.Set([]byte("k-new"), []byte("v"))
	commitTrie(t, tr2, s, 2)
	delta := s.Stats().Appends - base
	if delta == 0 || delta > 20 {
		t.Fatalf("incremental commit wrote %d nodes", delta)
	}

	// Committing an unchanged trie writes nothing at all.
	before := s.Stats().Appends
	commitTrie(t, tr2, s, 3)
	if got := s.Stats().Appends - before; got != 0 {
		t.Fatalf("no-op commit wrote %d nodes", got)
	}
}

func TestDiskBackedMutation(t *testing.T) {
	s := openStore(t)
	tr := New()
	for i := 0; i < 100; i++ {
		tr = tr.Set([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	root := commitTrie(t, tr, s, 1)

	// Mutate through the disk-backed trie: set, overwrite, delete.
	lt := Load(root, tr.Len(), s)
	lt2, err := lt.TrySet([]byte("k050"), []byte("overwritten"))
	if err != nil {
		t.Fatalf("TrySet: %v", err)
	}
	lt3, err := lt2.TrySet([]byte("brand-new"), []byte("nv"))
	if err != nil {
		t.Fatalf("TrySet: %v", err)
	}
	lt4, deleted, err := lt3.TryDelete([]byte("k007"))
	if err != nil || !deleted {
		t.Fatalf("TryDelete = %v, %v", deleted, err)
	}

	// The same edits on the in-memory trie must land on the same root:
	// disk-backed resolution cannot change the commitment.
	mem := tr.Set([]byte("k050"), []byte("overwritten")).Set([]byte("brand-new"), []byte("nv"))
	mem, _ = mem.Delete([]byte("k007"))
	if lt4.RootHash() != mem.RootHash() {
		t.Fatalf("disk root %s != memory root %s", lt4.RootHash().Short(), mem.RootHash().Short())
	}
	if lt4.Len() != mem.Len() {
		t.Fatalf("disk len %d != memory len %d", lt4.Len(), mem.Len())
	}

	// And the old loaded version still reads the original values.
	if v, ok, _ := lt.TryGet([]byte("k050")); !ok || string(v) != "v50" {
		t.Fatalf("old version sees %q", v)
	}
}

func TestLoadWithoutSourceFails(t *testing.T) {
	tr := New().Set([]byte("a"), []byte("1")).Set([]byte("b"), []byte("2"))
	lt := Load(tr.RootHash(), 2, nil)
	if _, _, err := lt.TryGet([]byte("a")); err == nil {
		t.Fatal("TryGet without source must fail")
	}
	// The legacy accessor panics instead of silently lying.
	defer func() {
		if recover() == nil {
			t.Fatal("Get without source must panic")
		}
	}()
	lt.Get([]byte("a"))
}

func TestWalkNodesCoversEverything(t *testing.T) {
	s := openStore(t)
	tr := New()
	for i := 0; i < 150; i++ {
		tr = tr.Set([]byte(fmt.Sprintf("w%03d", i)), []byte{byte(i), byte(i >> 4)})
	}
	root := commitTrie(t, tr, s, 1)

	seen := map[cryptoutil.Hash]bool{}
	if err := WalkNodes(s, root, func(h cryptoutil.Hash) bool {
		if seen[h] {
			return false
		}
		seen[h] = true
		return true
	}, nil, nil); err != nil {
		t.Fatalf("WalkNodes: %v", err)
	}
	// The walk from the only root must touch every record the commit
	// wrote — that is exactly the mark phase of pruning.
	if len(seen) != s.Stats().Records {
		t.Fatalf("walk saw %d nodes, store holds %d", len(seen), s.Stats().Records)
	}
	if err := WalkNodes(s, EmptyRoot, func(cryptoutil.Hash) bool {
		t.Fatal("empty root must visit nothing")
		return false
	}, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPruneKeepsRetainedRoots(t *testing.T) {
	// Small segments: compaction only ever rewrites sealed segments,
	// so the victims must not all sit in the active one (the five
	// generations are about 3.7 KB, less than one 4 KiB segment).
	s, err := nodestore.Open(t.TempDir(), nodestore.Options{Sync: nodestore.SyncNever, SegmentSize: 512})
	if err != nil {
		t.Fatalf("nodestore.Open: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	tr := New()
	var roots []cryptoutil.Hash
	tries := []*Trie{}
	for gen := 0; gen < 5; gen++ {
		for i := 0; i < 40; i++ {
			tr = tr.Set([]byte(fmt.Sprintf("g%d-k%02d", gen, i)), []byte{byte(gen), byte(i)})
		}
		roots = append(roots, commitTrie(t, tr, s, uint64(gen+1)))
		tries = append(tries, tr)
	}

	// Retain only the two newest roots; compact with a floor above
	// every commit so survival depends purely on the mark set.
	m := nodestore.NewMarker()
	for _, root := range roots[len(roots)-2:] {
		if err := WalkNodes(s, root, m.Keep, m.KeepBase, nil); err != nil {
			t.Fatalf("mark: %v", err)
		}
	}
	dropped, err := s.Compact(m, 100)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if dropped == 0 {
		t.Fatal("nothing pruned")
	}

	// The retained tries still serve every key; the pruned roots are
	// genuinely gone.
	for gi, lt := range []*Trie{Load(roots[3], tries[3].Len(), s), Load(roots[4], tries[4].Len(), s)} {
		gen := gi + 3
		for g := 0; g <= gen; g++ {
			for i := 0; i < 40; i++ {
				k := []byte(fmt.Sprintf("g%d-k%02d", g, i))
				if v, ok, err := lt.TryGet(k); err != nil || !ok || !bytes.Equal(v, []byte{byte(g), byte(i)}) {
					t.Fatalf("retained trie %d lost %s: %q %v %v", gen, k, v, ok, err)
				}
			}
		}
	}
	pruned := Load(roots[0], tries[0].Len(), s)
	failed := false
	for i := 0; i < 40 && !failed; i++ {
		if _, _, err := pruned.TryGet([]byte(fmt.Sprintf("g0-k%02d", i))); err != nil {
			failed = true
		}
	}
	if !failed {
		t.Fatal("pruned root still fully readable — compaction dropped nothing reachable only from it")
	}
}

func TestProveVerify(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			tr := New()
			want := map[string][]byte{}
			for i := 0; i < 120; i++ {
				k := []byte(fmt.Sprintf("p%03d", i))
				v := []byte(fmt.Sprintf("pv-%d", i))
				tr = tr.Set(k, v)
				want[string(k)] = v
			}
			root := tr.RootHash()
			target := tr
			if disk {
				s := openStore(t)
				commitTrie(t, tr, s, 1)
				target = Load(root, tr.Len(), s)
			}

			for _, k := range []string{"p000", "p057", "p119"} {
				proof, err := target.Prove([]byte(k))
				if err != nil {
					t.Fatalf("Prove(%s): %v", k, err)
				}
				v, ok, err := VerifyProof(root, []byte(k), proof)
				if err != nil || !ok || !bytes.Equal(v, want[k]) {
					t.Fatalf("VerifyProof(%s) = %q,%v,%v", k, v, ok, err)
				}
				// A proof is only as good as the root it is checked
				// against: the same proof must fail another root.
				if _, ok, err := VerifyProof(cryptoutil.HashBytes([]byte("other")), []byte(k), proof); err == nil && ok {
					t.Fatal("proof verified against wrong root")
				}
				// Tampering with any node must be detected.
				bad := make([][]byte, len(proof))
				for i := range proof {
					bad[i] = append([]byte(nil), proof[i]...)
				}
				bad[len(bad)-1][len(bad[len(bad)-1])-1] ^= 0xFF
				if _, ok, err := VerifyProof(root, []byte(k), bad); err == nil && ok {
					t.Fatal("tampered proof verified")
				}
			}

			// Absence proof.
			proof, err := target.Prove([]byte("absent-key"))
			if err != nil {
				t.Fatalf("Prove(absent): %v", err)
			}
			if v, ok, err := VerifyProof(root, []byte("absent-key"), proof); err != nil || ok || v != nil {
				t.Fatalf("absence proof = %q,%v,%v", v, ok, err)
			}
		})
	}

	// Empty-trie proofs.
	empty := New()
	proof, err := empty.Prove([]byte("x"))
	if err != nil || len(proof) != 0 {
		t.Fatalf("empty Prove = %v,%v", proof, err)
	}
	if _, ok, err := VerifyProof(EmptyRoot, []byte("x"), proof); err != nil || ok {
		t.Fatalf("empty VerifyProof = %v,%v", ok, err)
	}
}

// TestOldVersionImmutability is the structural-sharing property test:
// a random operation sequence, snapshotting the trie after every op,
// then asserting that NO prior version's root hash or contents moved —
// including under caller buffer reuse (the aliasing bug this PR fixes)
// and mutation of Get results. Runs against both the in-memory and
// the disk-backed path.
func TestOldVersionImmutability(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xDC5))
			var s *nodestore.Store
			if disk {
				s = openStore(t)
			}

			type version struct {
				tr    *Trie
				root  cryptoutil.Hash
				model map[string]string
			}
			tr := New()
			model := map[string]string{}
			versions := []version{}
			keyPool := make([][]byte, 60)
			for i := range keyPool {
				keyPool[i] = []byte(fmt.Sprintf("key-%02d", i))
			}
			buf := make([]byte, 16) // deliberately reused across Sets

			for op := 0; op < 400; op++ {
				k := keyPool[rng.Intn(len(keyPool))]
				switch rng.Intn(3) {
				case 0, 1: // set via the shared buffer
					n := rng.Intn(len(buf)) + 1
					for j := 0; j < n; j++ {
						buf[j] = byte(rng.Intn(256))
					}
					val := buf[:n]
					tr = tr.Set(k, val)
					model[string(k)] = string(val)
				case 2:
					var deleted bool
					tr, deleted = tr.Delete(k)
					if deleted {
						delete(model, string(k))
					}
				}
				if disk && op%50 == 49 {
					// Periodically persist and keep mutating through
					// the store-backed continuation of the same trie.
					root := commitTrie(t, tr, s, uint64(op))
					tr = Load(root, tr.Len(), s)
				}
				snap := make(map[string]string, len(model))
				for mk, mv := range model {
					snap[mk] = mv
				}
				versions = append(versions, version{tr: tr, root: tr.RootHash(), model: snap})
			}

			// Poke every channel that could alias internal state.
			for _, v := range versions {
				if got, ok := v.tr.Get(keyPool[0]); ok {
					for i := range got {
						got[i] = 0xAA // mutating a Get result must not touch the trie
					}
				}
			}
			for i := range buf {
				buf[i] = 0xFF
			}

			for i, v := range versions {
				if v.tr.RootHash() != v.root {
					t.Fatalf("version %d root drifted: %s -> %s", i, v.root.Short(), v.tr.RootHash().Short())
				}
				if v.tr.Len() != len(v.model) {
					t.Fatalf("version %d len %d, want %d", i, v.tr.Len(), len(v.model))
				}
				for mk, mv := range v.model {
					got, ok := v.tr.Get([]byte(mk))
					if !ok || string(got) != mv {
						t.Fatalf("version %d key %s = %q,%v want %q", i, mk, got, ok, mv)
					}
				}
			}
		})
	}
}

// TestSetBufferReuseRegression pins the specific aliasing bug: Set
// used to retain the caller's value slice, so reusing the buffer
// rewrote history in every version sharing the leaf.
func TestSetBufferReuseRegression(t *testing.T) {
	buf := []byte("original")
	tr := New().Set([]byte("k"), buf)
	root := tr.RootHash()
	copy(buf, "CLOBBER!")
	if tr.RootHash() != root {
		t.Fatal("root changed after caller buffer reuse")
	}
	if v, _ := tr.Get([]byte("k")); string(v) != "original" {
		t.Fatalf("value aliased caller buffer: %q", v)
	}
}

// TestDiskRootOrderIndependence extends the in-memory order-equivalence
// property to the disk-backed path: the same key set inserted in
// different orders — committed incrementally to independent stores,
// with the trie reloaded by root between chunks — converges on one
// root, and that root equals the purely in-memory one. (IAVL is order-
// dependent by design: its root commits to the AVL rebalancing history;
// see the iavl package doc.)
func TestDiskRootOrderIndependence(t *testing.T) {
	const n = 500
	keys := make([][]byte, n)
	for i := range keys {
		h := cryptoutil.HashBytes([]byte(fmt.Sprintf("order-key-%d", i)))
		keys[i] = h[:]
	}
	val := func(k []byte) []byte { return append([]byte("v:"), k[:8]...) }

	build := func(order []int) cryptoutil.Hash {
		s := openStore(t)
		root := EmptyRoot
		for chunk := 0; chunk < len(order); chunk += 100 {
			tr := Load(root, 0, s)
			var err error
			for _, idx := range order[chunk:min(chunk+100, len(order))] {
				if tr, err = tr.TrySet(keys[idx], val(keys[idx])); err != nil {
					t.Fatalf("TrySet: %v", err)
				}
			}
			root = commitTrie(t, tr, s, uint64(chunk))
		}
		return root
	}

	fwd := make([]int, n)
	rev := make([]int, n)
	for i := range fwd {
		fwd[i], rev[i] = i, n-1-i
	}
	shuf := rand.New(rand.NewSource(42)).Perm(n)

	r1, r2, r3 := build(fwd), build(rev), build(shuf)
	if r1 != r2 || r1 != r3 {
		t.Fatalf("disk roots diverge by insertion order: %s %s %s", r1.Short(), r2.Short(), r3.Short())
	}

	mem := New()
	for _, k := range keys {
		mem = mem.Set(k, val(k))
	}
	if got := mem.RootHash(); got != r1 {
		t.Fatalf("disk root %s != in-memory root %s for same content", r1.Short(), got.Short())
	}
}

// TestCacheBudgetHeldDuringLargeBuild is the bounded-RAM acceptance
// check: build a large account-style trie in chunks (reloading by root
// between commits, so in-RAM trie nodes never exceed one chunk), then
// close the store, reopen the same directory cold (index rebuilt from
// the segments, cache empty), and probe reads and proofs — asserting
// at every commit boundary and after the cold probes that the store's
// decoded-node cache accounting never exceeds its 64 MiB budget. The
// default 100k-key run keeps `go test` fast; set DCS_STATE_KEYS=1000000
// to run the paper-scale 1M-key build (the dcsbench -state table in
// EXPERIMENTS.md records that run: the cache pins at exactly
// 64.0/64.0 MiB while disk grows past 400 MiB).
func TestCacheBudgetHeldDuringLargeBuild(t *testing.T) {
	keys := 100_000
	if env := os.Getenv("DCS_STATE_KEYS"); env != "" {
		if _, err := fmt.Sscanf(env, "%d", &keys); err != nil || keys <= 0 {
			t.Fatalf("bad DCS_STATE_KEYS %q", env)
		}
	}
	const budget = 64 << 20
	dir := t.TempDir()
	s, err := nodestore.Open(dir, nodestore.Options{Sync: nodestore.SyncNever, CacheBytes: budget})
	if err != nil {
		t.Fatalf("nodestore.Open: %v", err)
	}

	key := func(i int) []byte {
		var seed [8]byte
		binary.BigEndian.PutUint64(seed[:], uint64(i))
		h := cryptoutil.HashBytes(seed[:])
		return h[:]
	}
	leaf := make([]byte, 48)

	const chunk = 50_000
	root := EmptyRoot
	for lo := 0; lo < keys; lo += chunk {
		tr := Load(root, 0, s)
		for i := lo; i < min(lo+chunk, keys); i++ {
			k := key(i)
			copy(leaf, k)
			binary.BigEndian.PutUint64(leaf[40:], uint64(i))
			if tr, err = tr.TrySet(k, leaf); err != nil {
				t.Fatalf("TrySet %d: %v", i, err)
			}
		}
		root = commitTrie(t, tr, s, uint64(lo/chunk))
		if st := s.Stats(); st.CacheBytes > st.CacheCap || st.CacheCap != budget {
			t.Fatalf("after %d keys: cache %d bytes exceeds budget %d", min(lo+chunk, keys), st.CacheBytes, st.CacheCap)
		}
	}

	// Reopen cold: the hash→offset index is rebuilt by scanning the
	// segments, the cache starts empty, and the committed root must
	// still serve every probe.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s, err = nodestore.Open(dir, nodestore.Options{Sync: nodestore.SyncNever, CacheBytes: budget})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	if n := unsafe.Sizeof(branchNode{}); n != 288 {
		t.Fatalf("a branchNode is %d bytes, want 288", n)
	}
	src := &accountant{Store: s}
	held := func(step string) {
		t.Helper()
		if st := s.Stats(); st.CacheBytes > st.CacheCap {
			t.Fatalf("%s: cache %d bytes exceeds budget %d", step, st.CacheBytes, st.CacheCap)
		}
		if src.short != "" {
			t.Fatalf("%s: %s", step, src.short)
		}
	}
	tr := Load(root, keys, src)
	for p := 0; p < 500; p++ {
		k := key((p * 7919) % keys)
		if _, ok, err := tr.TryGet(k); err != nil || !ok {
			t.Fatalf("TryGet probe %d: ok=%v err=%v", p, ok, err)
		}
		if _, err := tr.Prove(k); err != nil {
			t.Fatalf("Prove probe %d: %v", p, err)
		}
	}
	held("after probes")

	// The cycle of a flushed state: reload, modify, flush, read back. A
	// branch the flush replaces is a delta over the one before, which
	// holds leaves inline: what the delta reads back holds the leaves it
	// keeps of its base, and the size it reports counts them.
	for cycle := 1; cycle <= 2; cycle++ {
		tr := Load(root, keys, src)
		for i := cycle; i < keys; i += 20 {
			k := key(i)
			copy(leaf, k)
			binary.BigEndian.PutUint64(leaf[40:], uint64(cycle))
			if tr, err = tr.TrySet(k, leaf); err != nil {
				t.Fatalf("cycle %d: TrySet %d: %v", cycle, i, err)
			}
		}
		root = commitTrie(t, tr, s, uint64(keys/chunk+cycle))
		held(fmt.Sprintf("cycle %d, flushed", cycle))
		tr = Load(root, keys, src)
		for i := cycle; i < keys; i += 200 {
			if v, ok, err := tr.TryGet(key(i)); err != nil || !ok || binary.BigEndian.Uint64(v[40:]) != uint64(cycle) {
				t.Fatalf("cycle %d: TryGet %d: ok=%v err=%v", cycle, i, ok, err)
			}
		}
		held(fmt.Sprintf("cycle %d, read back", cycle))
	}
	if src.keptLeaves == 0 {
		t.Fatal("no delta read back keeps a leaf of its base")
	}
}

// accountant is a node source over a store that checks each size a
// decode reports for the cache against retained, and counts the deltas
// read back that keep a leaf of their base. short names the first record
// whose size falls short.
type accountant struct {
	*nodestore.Store
	short      string
	keptLeaves int
}

func (a *accountant) Node(h cryptoutil.Hash, decode func(cryptoutil.Hash, []byte) (any, int, error)) (any, error) {
	return a.Store.Node(h, func(h cryptoutil.Hash, enc []byte) (any, int, error) {
		v, size, err := decode(h, enc)
		if err != nil || size < 0 {
			return v, size, err
		}
		if r := retained(v); size < r && a.short == "" {
			a.short = fmt.Sprintf("record %s of kind %d reports %d bytes and holds %d", h.Short(), enc[0], size, r)
		}
		if d, ok := v.(*deltaNode); ok {
			_, leaves := masks(d.branch)
			if bits.OnesCount16(leaves) > InlineLeaves(enc) {
				a.keptLeaves++
			}
		}
		return v, size, err
	})
}

// retained is a lower bound of what a decoded record holds on to: its
// nodes' structs and hashes, their byte slices, a branch's boxed child
// hashes, and every leaf a branch holds, its own or kept from a base.
func retained(v any) int {
	const hash = cryptoutil.HashSize
	switch v := v.(type) {
	case *deltaNode:
		return int(unsafe.Sizeof(*v)) + retained(v.branch)
	case *branchNode:
		n := int(unsafe.Sizeof(*v)) + hash + len(v.value)
		for _, c := range v.children {
			switch c := c.(type) {
			case hashNode:
				n += hash
			case *leafNode:
				n += retained(c)
			}
		}
		return n
	case *extNode:
		return int(unsafe.Sizeof(*v)) + hash + len(v.path) + hash
	case *leafNode:
		return int(unsafe.Sizeof(*v)) + hash + len(v.keyEnd) + len(v.value)
	}
	return 0
}

// counter is a node source that logs the records it resolves.
type counter struct {
	NodeSource
	resolved []cryptoutil.Hash
}

func (c *counter) Node(h cryptoutil.Hash, decode func(cryptoutil.Hash, []byte) (any, int, error)) (any, error) {
	c.resolved = append(c.resolved, h)
	return c.NodeSource.Node(h, decode)
}

// TestColdReadResolvesNoLeaf: reading an account through a store with
// the cache off resolves exactly the branches and extensions on its path,
// the nodes of its proof but the last; its leaf, the last, is inside the
// record of the branch above it, and is no record of its own.
func TestColdReadResolvesNoLeaf(t *testing.T) {
	s, err := nodestore.Open(t.TempDir(), nodestore.Options{CacheBytes: -1, Sync: nodestore.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := New()
	for i := range 3000 {
		tr = tr.Set([]byte(fmt.Sprintf("account-%05d", i)), []byte(fmt.Sprintf("balance %d", i*7)))
	}
	root := commitTrie(t, tr, s, 1)
	for _, k := range []string{"account-00000", "account-01234", "account-02999"} {
		src := &counter{NodeSource: s}
		if v, ok, err := Load(root, tr.Len(), src).TryGet([]byte(k)); err != nil || !ok || len(v) == 0 {
			t.Fatalf("TryGet(%s): ok=%v err=%v", k, ok, err)
		}
		proof, err := tr.Prove([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		var path []cryptoutil.Hash
		for i, enc := range proof {
			n, err := decodeNode(enc)
			if _, leaf := n.(*leafNode); err != nil || leaf != (i == len(proof)-1) {
				t.Fatalf("%s: proof node %d is a %T (%v)", k, i, n, err)
			}
			if i < len(proof)-1 {
				path = append(path, n.hash())
			} else if s.Has(n.hash()) {
				t.Fatalf("%s: the leaf is a record", k)
			}
		}
		if !slices.Equal(src.resolved, path) {
			t.Fatalf("%s: resolved %d records, want the %d branches and extensions on its path", k, len(src.resolved), len(path))
		}
	}
}

// BenchmarkReadBranch is a cold read of a branch of a 3,000-key trie
// through a store with the cache off: the top branch, under the root
// extension, its record full or a delta at the end of a chain of three,
// whose read reads and builds the chain's three bases too; and a bottom
// branch, its record full with its ten leaves inline.
func BenchmarkReadBranch(b *testing.B) {
	for _, c := range []struct {
		name  string
		depth int
	}{{"depth-0", 0}, {"depth-3", maxDeltaDepth}, {"inline-leaves", 0}} {
		b.Run(c.name, func(b *testing.B) {
			s, err := nodestore.Open(b.TempDir(), nodestore.Options{CacheBytes: -1, Sync: nodestore.SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			tr := New()
			for i := range 3000 {
				tr = tr.Set([]byte(fmt.Sprintf("account-%05d", i)), []byte(fmt.Sprintf("balance %d", i*7)))
			}
			for height := range c.depth + 1 {
				batch := s.NewBatch(uint64(height))
				root, err := tr.Commit(batch)
				if err != nil || batch.Commit() != nil {
					b.Fatal("commit failed")
				}
				tr = Load(root, tr.Len(), s).Set([]byte(fmt.Sprintf("account-%05d", height)), []byte("changed"))
			}
			proof, err := Load(tr.loaded, tr.Len(), s).Prove([]byte("account-01234"))
			if err != nil {
				b.Fatal(err)
			}
			at := proof[1] // the top branch
			if c.name == "inline-leaves" {
				at = proof[len(proof)-2]
			}
			n, err := decodeNode(at)
			if err != nil {
				b.Fatal(err)
			}
			root := n.hash()
			if nd, d, err := resolveStored(s, root, maxDeltaDepth, true); err != nil || d == nil && c.depth > 0 || d != nil && d.depth != c.depth {
				b.Fatalf("branch at depth %d: %v", c.depth, err)
			} else if _, leaves := masks(nd.(*branchNode)); (leaves != 0) != (c.name == "inline-leaves") {
				b.Fatalf("branch holds leaves %016b", leaves)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := resolveStored(s, root, maxDeltaDepth, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestConcurrentDeltaReads: readers that share a store's cache build its
// delta records concurrently, each seeing the whole branch, and every
// key of a trie flushed as deltas over two earlier flushes reads back.
func TestConcurrentDeltaReads(t *testing.T) {
	s := openStore(t)
	tr, want := New(), map[string]string{}
	for i := range 400 {
		k := fmt.Sprintf("key-%03d", i)
		tr, want[k] = tr.Set([]byte(k), []byte(k)), k
	}
	for height := range uint64(3) {
		root := commitTrie(t, tr, s, height)
		k := fmt.Sprintf("key-%03d", height*7)
		tr, want[k] = Load(root, tr.Len(), s).Set([]byte(k), []byte("v2")), "v2"
	}
	lt := Load(commitTrie(t, tr, s, 3), tr.Len(), s)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, v := range want {
				if got, ok, err := lt.TryGet([]byte(k)); err != nil || !ok || string(got) != v {
					t.Errorf("TryGet(%s) = %q, %v, %v", k, got, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
