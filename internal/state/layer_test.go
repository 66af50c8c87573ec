package state

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"dcsledger/internal/cryptoutil"
)

// TestColdAccountIs40Bytes: a compacted account record is the address,
// balance and nonce, with the code index in the padding between them.
func TestColdAccountIs40Bytes(t *testing.T) {
	if n := unsafe.Sizeof(coldAccount{}); n != 40 {
		t.Fatalf("coldAccount is %d bytes, want 40", n)
	}
}

// TestWriteToCompactedLayerPanics: every write funnel refuses a
// compacted layer, and what it held reads as before.
func TestWriteToCompactedLayerPanics(t *testing.T) {
	s, c := contractState()
	a := cryptoutil.KeyFromSeed([]byte{1, 'g'}).Address()
	root := s.Commit()
	s.ReleaseTrie()
	s.Compact()
	s.Compact() // a second time is a no-op
	if s.Balance(a) != 101 || string(s.Code(c)) != "native:notary" || string(s.Storage(c, []byte("doc/a"))) != "alice" ||
		s.Storage(c, []byte("doc/gone")) != nil || s.Commit() != root || s.AccountTrie().RootHash() != root || s.Err() != nil {
		t.Fatalf("compacted layer reads differently (err %v)", s.Err())
	}
	child := s.Copy()
	child.Credit(a, 1)
	for name, write := range map[string]func(){
		"Credit":     func() { s.Credit(a, 1) },
		"Debit":      func() { _ = s.Debit(a, 1) },
		"SetCode":    func() { s.SetCode(a, []byte("code")) },
		"SetStorage": func() { s.SetStorage(c, []byte("k"), []byte("v")) },
		"Absorb":     func() { s.Absorb(child) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a compacted layer did not panic", name)
				}
			}()
			write()
		}()
	}
	if s.Balance(a) != 101 || s.Commit() != root {
		t.Fatal("a refused write changed the layer")
	}
}

// TestReadersWhileLayersCompact: goroutines read a chain of released
// layers — accounts, contract code and slots — and commit a
// child over them while the chain is compacted under them, top to bottom
// and bottom to top at once (run under -race). Every read and every
// child's root is what it was before.
func TestReadersWhileLayersCompact(t *testing.T) {
	addrs := make([]cryptoutil.Address, 16)
	for i := range addrs {
		addrs[i] = cryptoutil.KeyFromSeed([]byte{byte(i), 'r'}).Address()
	}
	const depth = 24
	layers := []*State{New()}
	for d := 1; d <= depth; d++ {
		l := layers[d-1].Copy()
		for i, a := range addrs {
			if (i+d)%3 == 0 {
				l.Credit(a, uint64(d))
			}
		}
		c := addrs[d%len(addrs)]
		l.Credit(c, 1) // slots live under an account record
		if d%4 == 0 {
			l.SetCode(c, []byte(fmt.Sprint("code-", d)))
		}
		l.SetStorage(c, []byte{byte(d % 5)}, []byte{byte(d)})
		l.Commit()
		layers = append(layers, l)
	}
	top := layers[depth]
	type view struct {
		bal         []uint64
		code, slots [][]byte
		root        cryptoutil.Hash
	}
	look := func() view {
		v, c := top.Copy(), top.Copy()
		var out view
		for _, a := range addrs {
			out.bal = append(out.bal, v.Balance(a))
			out.code = append(out.code, v.Code(a))
			for k := byte(0); k < 5; k++ {
				out.slots = append(out.slots, v.Storage(a, []byte{k}))
			}
		}
		c.Credit(addrs[0], 1)
		out.root = c.Commit()
		return out
	}
	want := look()
	for _, l := range layers[1:] {
		l.ReleaseTrie() // reads and commits walk every layer down to the base
	}

	var wg, started sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				if n == 0 {
					started.Done()
				}
				got := look()
				for i := range want.bal {
					if got.bal[i] != want.bal[i] || !bytes.Equal(got.code[i], want.code[i]) {
						t.Errorf("account %d reads %d/%x, want %d/%x", i, got.bal[i], got.code[i], want.bal[i], want.code[i])
						return
					}
				}
				for i := range want.slots {
					if !bytes.Equal(got.slots[i], want.slots[i]) {
						t.Errorf("slot %d reads %x, want %x", i, got.slots[i], want.slots[i])
						return
					}
				}
				if got.root != want.root {
					t.Errorf("child root %s, want %s", got.root.Short(), want.root.Short())
					return
				}
				select {
				case <-stop:
					if n > 4 {
						return
					}
				default:
				}
			}
		}()
	}
	started.Wait() // every reader is walking the layers, or about to

	var compactors sync.WaitGroup
	for _, order := range []int{1, -1} {
		compactors.Add(1)
		go func() {
			defer compactors.Done()
			for i := range layers[1:] {
				if order > 0 {
					layers[1+i].Compact()
				} else {
					layers[depth-i].Compact()
				}
			}
		}()
	}
	compactors.Wait()
	close(stop)
	wg.Wait()
	if got := look(); got.root != want.root {
		t.Fatalf("after compaction: child root %s, want %s", got.root.Short(), want.root.Short())
	}
}
