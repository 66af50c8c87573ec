package state

import (
	"fmt"
	"math/rand"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
)

func addrN(i int) cryptoutil.Address {
	return cryptoutil.AddressFromHash(cryptoutil.HashUint64("cow-test", uint64(i)))
}

func TestCopyIsDiffLayer(t *testing.T) {
	base := New()
	a, b := addrN(1), addrN(2)
	base.Credit(a, 100)
	base.SetStorage(a, []byte("k"), []byte("v"))

	layer := base.Copy()
	if readDepth(layer) != 2 {
		t.Fatalf("a read visits %d layers, want 2", readDepth(layer))
	}
	// Read-through.
	if layer.Balance(a) != 100 {
		t.Fatalf("layer balance = %d", layer.Balance(a))
	}
	if string(layer.Storage(a, []byte("k"))) != "v" {
		t.Fatal("layer must read through to parent storage")
	}
	// Writes stay local.
	layer.Credit(b, 7)
	layer.Credit(a, 1)
	if base.Balance(b) != 0 || base.Balance(a) != 100 {
		t.Fatal("layer write leaked into base")
	}
	if layer.Balance(a) != 101 || layer.Balance(b) != 7 {
		t.Fatal("layer write lost")
	}
	// Commit sees the merged view.
	if layer.Len() != 2 {
		t.Fatalf("layer.Len() = %d, want 2", layer.Len())
	}
}

// mirrorOp applies the same mutation to a layered and a flat state.
func applyRandomOps(rng *rand.Rand, dst *State, n int) {
	for i := 0; i < n; i++ {
		a := addrN(rng.Intn(12))
		switch rng.Intn(4) {
		case 0:
			dst.Credit(a, uint64(rng.Intn(50)+1))
		case 1:
			if dst.Balance(a) > 3 {
				_ = dst.Debit(a, 3)
			}
		case 2:
			dst.SetStorage(a, []byte(fmt.Sprintf("k%d", rng.Intn(6))), []byte(fmt.Sprintf("v%d", rng.Int())))
		case 3:
			dst.SetCode(a, []byte(fmt.Sprintf("code-%d", rng.Intn(4))))
		}
	}
}

func TestLayeredCommitMatchesFlat(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rngA := rand.New(rand.NewSource(seed))
		rngB := rand.New(rand.NewSource(seed))
		layered := New()
		flat := New()
		for round := 0; round < 6; round++ {
			applyRandomOps(rngA, layered, 30)
			applyRandomOps(rngB, flat, 30)
			layered = layered.Copy() // push a new diff layer each round
		}
		if layered.Commit() != flat.Commit() {
			t.Fatalf("seed %d: layered commit diverges from flat commit", seed)
		}

		// Detach preserves the root and reads from the trie alone.
		fl := layered.Detach()
		if readDepth(fl) != 1 {
			t.Fatalf("a read of the detached state visits %d layers", readDepth(fl))
		}
		if fl.Commit() != layered.Commit() || fl.AccountTrie().RootHash() != layered.Commit() {
			t.Fatalf("seed %d: Detach changed the commit root", seed)
		}
		if fl.Len() != layered.Len() {
			t.Fatalf("seed %d: Detach changed Len: %d != %d", seed, fl.Len(), layered.Len())
		}

		// Snapshot round-trip across layers.
		snap, err := layered.EncodeSnapshot()
		if err != nil {
			t.Fatalf("EncodeSnapshot: %v", err)
		}
		dec, err := DecodeSnapshot(snap)
		if err != nil {
			t.Fatalf("DecodeSnapshot: %v", err)
		}
		if dec.Commit() != layered.Commit() {
			t.Fatalf("seed %d: snapshot round-trip changed the commit root", seed)
		}
	}
}

func TestDeepLayerChainReads(t *testing.T) {
	st := New()
	a := addrN(7)
	st.Credit(a, 1)
	st.SetCode(a, []byte("native:thing"))
	st.SetStorage(a, []byte("deep"), []byte("value"))
	for i := 0; i < 200; i++ {
		st = st.Copy()
	}
	if readDepth(st) != 201 {
		t.Fatalf("a read visits %d layers", readDepth(st))
	}
	if st.Balance(a) != 1 || string(st.Code(a)) != "native:thing" ||
		string(st.Storage(a, []byte("deep"))) != "value" || !st.IsContract(a) {
		t.Fatal("reads through a deep layer chain lost data")
	}
}

func TestFailedInvokeOnLayerKeepsParentClean(t *testing.T) {
	// The contract-revert path (stage on child layer, drop on failure)
	// must also work when s itself is already a diff layer.
	base := New()
	base.SetExecutor(&stubExecutor{failInvoke: true})
	k, alice := keyAddr("cow-alice")
	_, miner := keyAddr("cow-miner")
	_, target := keyAddr("cow-contract")
	base.Credit(alice, 100)

	layer := base.Copy()
	invoke := &types.Transaction{Kind: types.TxInvoke, From: alice, To: target, Value: 20, Fee: 4, Nonce: 0}
	if err := invoke.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	rec, err := layer.ApplyTx(invoke, miner)
	if err != nil {
		t.Fatalf("ApplyTx: %v", err)
	}
	if rec.OK {
		t.Fatal("failed invoke must not be OK")
	}
	if layer.Storage(target, []byte("poison")) != nil {
		t.Fatal("contract effects must revert on the layer")
	}
	if layer.Balance(alice) != 96 || layer.Balance(miner) != 4 {
		t.Fatalf("balances %d/%d", layer.Balance(alice), layer.Balance(miner))
	}
	if base.Balance(alice) != 100 || base.Balance(miner) != 0 {
		t.Fatal("ApplyTx on a layer leaked into the parent")
	}
}

// readDepth is how many layers a read of s that misses them all visits.
func readDepth(s *State) int {
	_, d := s.Under()
	return d
}
