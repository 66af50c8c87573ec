package iavl

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

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

func commitTree(t *testing.T, tr *Tree, s *nodestore.Store, height uint64) cryptoutil.Hash {
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
		k := []byte(fmt.Sprintf("key-%04d", i%250)) // some overwrites
		v := []byte(fmt.Sprintf("val-%d", i))
		tr = tr.Set(k, v)
		want[string(k)] = v
	}
	root := commitTree(t, tr, s, 1)

	lt, err := Load(root, s)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if lt.Len() != tr.Len() || lt.Height() != tr.Height() {
		t.Fatalf("loaded len/height %d/%d, want %d/%d", lt.Len(), lt.Height(), tr.Len(), tr.Height())
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

	// Range through the disk-backed tree must agree with in-memory.
	var memKeys, diskKeys []string
	tr.Range(nil, nil, func(k, _ []byte) bool { memKeys = append(memKeys, string(k)); return true })
	lt.Range(nil, nil, func(k, _ []byte) bool { diskKeys = append(diskKeys, string(k)); return true })
	if len(memKeys) != len(diskKeys) {
		t.Fatalf("range lengths %d != %d", len(memKeys), len(diskKeys))
	}
	for i := range memKeys {
		if memKeys[i] != diskKeys[i] {
			t.Fatalf("range order diverges at %d: %s != %s", i, memKeys[i], diskKeys[i])
		}
	}
}

func TestDiskBackedMutationMatchesMemory(t *testing.T) {
	s := openStore(t)
	tr := New()
	for i := 0; i < 200; i++ {
		tr = tr.Set([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	root := commitTree(t, tr, s, 1)
	lt, err := Load(root, s)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	// The same mutation sequence through memory and through the store
	// must produce identical roots: lazy resolution cannot change the
	// rebalancing history the hash commits to.
	ops := func(tt *Tree) *Tree {
		for i := 0; i < 60; i++ {
			tt = tt.Set([]byte(fmt.Sprintf("new-%02d", i)), []byte{byte(i)})
		}
		for i := 0; i < 200; i += 3 {
			tt, _ = tt.Delete([]byte(fmt.Sprintf("k%03d", i)))
		}
		return tt.Set([]byte("k050"), []byte("rewritten"))
	}
	mem, disk := ops(tr), ops(lt)
	if mem.RootHash() != disk.RootHash() {
		t.Fatalf("disk root %s != memory root %s", disk.RootHash().Short(), mem.RootHash().Short())
	}
	if mem.Len() != disk.Len() || mem.Height() != disk.Height() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", mem.Len(), mem.Height(), disk.Len(), disk.Height())
	}

	// The committed version is untouched by everything above.
	if lt2, err := Load(root, s); err != nil || lt2.RootHash() != root || lt2.Len() != 200 {
		t.Fatalf("committed version drifted: %v", err)
	}
}

func TestIncrementalCommit(t *testing.T) {
	s := openStore(t)
	tr := New()
	for i := 0; i < 250; i++ {
		tr = tr.Set([]byte(fmt.Sprintf("k%04d", i)), []byte{byte(i)})
	}
	commitTree(t, tr, s, 1)
	base := s.Stats().Appends

	tr2 := tr.Set([]byte("k9999"), []byte("x"))
	commitTree(t, tr2, s, 2)
	delta := s.Stats().Appends - base
	// One insert touches an O(log n) spine (8-ish nodes at 250 keys),
	// not the whole tree.
	if delta == 0 || delta > 25 {
		t.Fatalf("incremental commit wrote %d nodes", delta)
	}

	before := s.Stats().Appends
	commitTree(t, tr2, s, 3)
	if got := s.Stats().Appends - before; got != 0 {
		t.Fatalf("no-op commit wrote %d nodes", got)
	}
}

func TestWalkNodesCoversEverything(t *testing.T) {
	s := openStore(t)
	tr := New()
	for i := 0; i < 150; i++ {
		tr = tr.Set([]byte(fmt.Sprintf("w%03d", i)), []byte{byte(i)})
	}
	root := commitTree(t, tr, s, 1)
	seen := map[cryptoutil.Hash]bool{}
	if err := WalkNodes(s, root, func(h cryptoutil.Hash) bool {
		if seen[h] {
			return false
		}
		seen[h] = true
		return true
	}); err != nil {
		t.Fatalf("WalkNodes: %v", err)
	}
	if len(seen) != s.Stats().Records {
		t.Fatalf("walk saw %d nodes, store holds %d", len(seen), s.Stats().Records)
	}
}

func TestLoadMissingRootFails(t *testing.T) {
	s := openStore(t)
	if _, err := Load(cryptoutil.HashBytes([]byte("nowhere")), s); err == nil {
		t.Fatal("Load of unknown root must fail")
	}
	if lt, err := Load(EmptyRoot, s); err != nil || lt.Len() != 0 {
		t.Fatalf("Load(EmptyRoot) = %v", err)
	}
}

// TestOldVersionImmutability is the structural-sharing property test
// for the IAVL tree: random ops with caller buffer reuse and Get
// result mutation, then every snapshot's root hash and contents must
// be byte-identical to what they were when taken. Runs in-memory and
// disk-backed.
func TestOldVersionImmutability(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x1AA1))
			var s *nodestore.Store
			if disk {
				s = openStore(t)
			}

			type version struct {
				tr    *Tree
				root  cryptoutil.Hash
				model map[string]string
			}
			tr := New()
			model := map[string]string{}
			var versions []version
			keyBuf := make([]byte, 8)  // reused across Sets
			valBuf := make([]byte, 16) // reused across Sets

			for op := 0; op < 400; op++ {
				copy(keyBuf, fmt.Sprintf("key-%02d", rng.Intn(60)))
				switch rng.Intn(3) {
				case 0, 1:
					n := rng.Intn(len(valBuf)) + 1
					for j := 0; j < n; j++ {
						valBuf[j] = byte(rng.Intn(256))
					}
					tr = tr.Set(keyBuf, valBuf[:n])
					model[string(keyBuf)] = string(valBuf[:n])
				case 2:
					var deleted bool
					tr, deleted = tr.Delete(keyBuf)
					if deleted {
						delete(model, string(keyBuf))
					}
				}
				if disk && op%50 == 49 {
					root := commitTree(t, tr, s, uint64(op))
					lt, err := Load(root, s)
					if err != nil {
						t.Fatalf("Load: %v", err)
					}
					tr = lt
				}
				snap := make(map[string]string, len(model))
				for mk, mv := range model {
					snap[mk] = mv
				}
				versions = append(versions, version{tr: tr, root: tr.RootHash(), model: snap})
			}

			// Poke the aliasing channels.
			for _, v := range versions {
				if got, ok := v.tr.Get([]byte("key-00")); ok {
					for i := range got {
						got[i] = 0xAA
					}
				}
			}
			for i := range valBuf {
				valBuf[i] = 0xFF
			}
			for i := range keyBuf {
				keyBuf[i] = 0xFF
			}

			for i, v := range versions {
				if v.tr.RootHash() != v.root {
					t.Fatalf("version %d root drifted", i)
				}
				if v.tr.Len() != len(v.model) {
					t.Fatalf("version %d len %d, want %d", i, v.tr.Len(), len(v.model))
				}
				for mk, mv := range v.model {
					got, ok := v.tr.Get([]byte(mk))
					if !ok || string(got) != mv {
						t.Fatalf("version %d key %q = %q,%v want %q", i, mk, got, ok, mv)
					}
				}
			}
		})
	}
}

// TestSetBufferReuseRegression pins the aliasing bug this PR fixes:
// Set copied the key but retained the caller's value slice, so
// reusing the buffer rewrote every version sharing the leaf.
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
