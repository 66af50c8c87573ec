package txpool

import (
	"errors"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
)

func tx(t *testing.T, seed string, nonce, fee uint64) *types.Transaction {
	t.Helper()
	k := cryptoutil.KeyFromSeed([]byte(seed))
	to := cryptoutil.KeyFromSeed([]byte("recipient")).Address()
	tr := types.NewTransfer(k.Address(), to, 10, fee, nonce)
	if err := tr.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	return tr
}

// invoke signs a contract call offering gasLimit gas.
func invoke(t *testing.T, seed string, gasLimit uint64) *types.Transaction {
	t.Helper()
	k := cryptoutil.KeyFromSeed([]byte(seed))
	to := cryptoutil.KeyFromSeed([]byte("contract")).Address()
	tr := &types.Transaction{Kind: types.TxInvoke, From: k.Address(), To: to, Fee: 1, GasLimit: gasLimit}
	if err := tr.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	return tr
}

func TestAddHasLen(t *testing.T) {
	p := New(0)
	tr := tx(t, "a", 0, 1)
	if err := p.Add(tr); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if !p.Has(tr.ID()) || p.Len() != 1 {
		t.Fatal("pool should contain the tx")
	}
}

func TestAddRejects(t *testing.T) {
	p := New(0)
	t.Run("coinbase", func(t *testing.T) {
		cb := types.NewCoinbase(cryptoutil.ZeroAddress, 50, 1)
		if err := p.Add(cb); !errors.Is(err, ErrCoinbase) {
			t.Fatalf("want ErrCoinbase, got %v", err)
		}
	})
	t.Run("unsigned", func(t *testing.T) {
		bad := types.NewTransfer(cryptoutil.ZeroAddress, cryptoutil.ZeroAddress, 1, 1, 0)
		if err := p.Add(bad); !errors.Is(err, types.ErrNoSignature) {
			t.Fatalf("want ErrNoSignature, got %v", err)
		}
	})
	t.Run("gas limit over the cap", func(t *testing.T) {
		// An invoke of `loop: PUSH @loop JUMP` under this limit would
		// hold the proposer's block for as long as it runs.
		if err := p.Add(invoke(t, "gas", types.MaxGasLimit+1)); !errors.Is(err, types.ErrGasLimit) {
			t.Fatalf("want ErrGasLimit, got %v", err)
		}
	})
	t.Run("gas limit at the cap", func(t *testing.T) {
		if err := p.Add(invoke(t, "gas", types.MaxGasLimit)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		tr := tx(t, "a", 0, 1)
		if err := p.Add(tr); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if err := p.Add(tr); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("want ErrDuplicate, got %v", err)
		}
	})
}

func TestCapacityEviction(t *testing.T) {
	p := New(3)
	low := tx(t, "low", 0, 1)
	mid1 := tx(t, "mid1", 0, 5)
	mid2 := tx(t, "mid2", 0, 6)
	for _, tr := range []*types.Transaction{low, mid1, mid2} {
		if err := p.Add(tr); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	// A cheap newcomer is refused.
	cheap := tx(t, "cheap", 0, 1)
	if err := p.Add(cheap); !errors.Is(err, ErrFull) {
		t.Fatalf("want ErrFull, got %v", err)
	}
	// A rich newcomer evicts the cheapest.
	rich := tx(t, "rich", 0, 10)
	if err := p.Add(rich); err != nil {
		t.Fatalf("Add rich: %v", err)
	}
	if p.Has(low.ID()) {
		t.Fatal("lowest-fee tx should have been evicted")
	}
	if !p.Has(rich.ID()) || p.Len() != 3 {
		t.Fatal("rich tx should be pooled at capacity")
	}
}

func TestSelectFeePriority(t *testing.T) {
	p := New(0)
	fees := []uint64{3, 9, 1, 7, 5}
	for i, f := range fees {
		if err := p.Add(tx(t, string(rune('a'+i)), 0, f)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	sel := p.Select(3, 0)
	if len(sel) != 3 {
		t.Fatalf("Select = %d txs", len(sel))
	}
	want := []uint64{9, 7, 5}
	for i, tr := range sel {
		if tr.Fee != want[i] {
			t.Fatalf("Select[%d].Fee = %d, want %d", i, tr.Fee, want[i])
		}
	}
	// Selection must not remove.
	if p.Len() != 5 {
		t.Fatal("Select must not drain the pool")
	}
}

func TestSelectNonceOrderPerSender(t *testing.T) {
	p := New(0)
	// Same sender, later nonce pays more: nonce order must still win so
	// the batch stays applicable.
	t0 := tx(t, "same", 0, 1)
	t1 := tx(t, "same", 1, 100)
	if err := p.Add(t1); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := p.Add(t0); err != nil {
		t.Fatalf("Add: %v", err)
	}
	sel := p.Select(2, 0)
	if len(sel) != 2 || sel[0].Nonce != 0 || sel[1].Nonce != 1 {
		t.Fatalf("same-sender selection out of nonce order: %v", []uint64{sel[0].Nonce, sel[1].Nonce})
	}
}

func TestSelectByteBudget(t *testing.T) {
	p := New(0)
	for i := 0; i < 5; i++ {
		if err := p.Add(tx(t, string(rune('a'+i)), 0, uint64(i+1))); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	one := p.Select(0, len(tx(t, "z", 0, 1).Encode())+10)
	if len(one) != 1 {
		t.Fatalf("byte budget should admit exactly 1 tx, got %d", len(one))
	}
	all := p.Select(0, 0)
	if len(all) != 5 {
		t.Fatalf("unlimited budget should admit all, got %d", len(all))
	}

	// A transaction that does not fit is skipped, not the end of the
	// selection: the best-paying one here carries a payload the budget
	// cannot take, and the two after it in fee order still go in.
	k := cryptoutil.KeyFromSeed([]byte("bulky"))
	bulky := &types.Transaction{Kind: types.TxInvoke, From: k.Address(), Fee: 99, GasLimit: 1, Data: make([]byte, 4096)}
	if err := bulky.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := p.Add(bulky); err != nil {
		t.Fatalf("Add: %v", err)
	}
	small := len(tx(t, "z", 0, 1).Encode())
	two := p.Select(0, 2*small+10)
	if len(two) != 2 || two[0].Fee != 5 || two[1].Fee != 4 {
		t.Fatalf("budget of two transfers behind a transaction over it: got %d txs, want the fee-5 and fee-4 transfers", len(two))
	}
	if all := p.Select(0, 0); len(all) != 6 || all[0] != bulky {
		t.Fatalf("unlimited budget should admit all six, the bulky one first; got %d", len(all))
	}
}

func TestRemoveAndBlockRemoval(t *testing.T) {
	p := New(0)
	t1 := tx(t, "a", 0, 1)
	t2 := tx(t, "b", 0, 2)
	if err := p.Add(t1); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := p.Add(t2); err != nil {
		t.Fatalf("Add: %v", err)
	}
	p.Remove(t1.ID())
	if p.Has(t1.ID()) || !p.Has(t2.ID()) {
		t.Fatal("Remove removed the wrong tx")
	}
	b := types.NewBlock(cryptoutil.ZeroHash, 1, 0, cryptoutil.ZeroAddress, []*types.Transaction{t2})
	p.RemoveBlockTxs(b)
	if p.Len() != 0 {
		t.Fatal("RemoveBlockTxs should empty the pool")
	}
}

func TestReadd(t *testing.T) {
	p := New(0)
	t1 := tx(t, "a", 0, 1)
	cb := types.NewCoinbase(cryptoutil.ZeroAddress, 50, 1)
	unsigned := types.NewTransfer(cryptoutil.ZeroAddress, cryptoutil.ZeroAddress, 1, 1, 0)
	p.Readd([]*types.Transaction{t1, cb, unsigned})
	if p.Len() != 1 || !p.Has(t1.ID()) {
		t.Fatal("Readd should re-pool only the valid user tx")
	}
}

func TestSelectDeterministic(t *testing.T) {
	p := New(0)
	for i := 0; i < 8; i++ {
		if err := p.Add(tx(t, string(rune('a'+i)), 0, 5)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	a := p.Select(8, 0)
	b := p.Select(8, 0)
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatal("equal-fee selection must be deterministic")
		}
	}
}

func TestEvictionDeterministicOnFeeTies(t *testing.T) {
	// Same transactions, two insertion orders: the full pool must evict
	// the same victim regardless of map iteration order, or the
	// simulator loses seed-reproducibility.
	// Build the transactions once: signatures are randomized, so re-signing
	// the same payload yields a different tx ID. Both insertion orders must
	// share the exact same signed objects for the comparison to be valid.
	base := make([]*types.Transaction, 4)
	for i := range base {
		base[i] = tx(t, string(rune('a'+i)), 0, 5) // equal fees
	}
	rich := tx(t, "whale", 0, 50)
	mk := func(order []int) map[cryptoutil.Hash]bool {
		p := New(4)
		for _, i := range order {
			if err := p.Add(base[i]); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		if err := p.Add(rich); err != nil {
			t.Fatalf("Add rich: %v", err)
		}
		got := make(map[cryptoutil.Hash]bool)
		for _, tr := range p.Select(10, 0) {
			got[tr.ID()] = true
		}
		return got
	}
	for trial := 0; trial < 8; trial++ {
		a := mk([]int{0, 1, 2, 3})
		b := mk([]int{3, 1, 0, 2})
		if len(a) != len(b) {
			t.Fatalf("pool sizes differ: %d vs %d", len(a), len(b))
		}
		for id := range a {
			if !b[id] {
				t.Fatal("eviction victim depends on insertion/map order")
			}
		}
	}
}

// TestSelectGroupsSendersOnFeeTies is the parallel-execution ordering
// regression: with every fee equal, each sender's whole nonce chain must
// occupy consecutive slots in nonce order. The optimistic executor
// (internal/exec) speculates one contiguous same-sender run per lane, so
// a chain scattered across the block would turn nonce succession into
// spurious conflicts.
func TestSelectGroupsSendersOnFeeTies(t *testing.T) {
	p := New(0)
	seeds := []string{"tie-a", "tie-b", "tie-c"}
	for _, seed := range seeds {
		for n := uint64(0); n < 10; n++ {
			if err := p.Add(tx(t, seed, n, 7)); err != nil {
				t.Fatalf("Add %s/%d: %v", seed, n, err)
			}
		}
	}
	got := p.Select(0, 0)
	if len(got) != 30 {
		t.Fatalf("Select returned %d txs, want 30", len(got))
	}
	seen := make(map[cryptoutil.Address]bool)
	for i := 0; i < len(got); i += 10 {
		from := got[i].From
		if seen[from] {
			t.Fatalf("sender %s not contiguous: reappears at slot %d", from.Short(), i)
		}
		seen[from] = true
		for k := 0; k < 10; k++ {
			cur := got[i+k]
			if cur.From != from {
				t.Fatalf("slot %d: sender %s interleaves %s's run", i+k, cur.From.Short(), from.Short())
			}
			if cur.Nonce != uint64(k) {
				t.Fatalf("slot %d: nonce %d, want %d", i+k, cur.Nonce, k)
			}
		}
	}
}

// TestAdopt: a decoded copy of a pooled transaction is replaced by the
// pooled instance, verified on admission; anything else is left alone.
func TestAdopt(t *testing.T) {
	p := New(0)
	pooled := tx(t, "a", 0, 1)
	if err := p.Add(pooled); err != nil {
		t.Fatal(err)
	}
	stranger := tx(t, "b", 0, 1)
	txs := []*types.Transaction{types.NewCoinbase(cryptoutil.ZeroAddress, 50, 1), nil, stranger}
	var err error
	if txs[1], err = types.DecodeTransaction(pooled.Encode()); err != nil {
		t.Fatal(err)
	}
	cb := txs[0]
	p.Adopt(txs)
	if txs[0] != cb || txs[1] != pooled || txs[2] != stranger {
		t.Fatal("Adopt must swap in exactly the pooled instance")
	}
}
