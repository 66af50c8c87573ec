package exec

import (
	"errors"
	"fmt"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
	"dcsledger/internal/vm"
)

func keyAddr(seed string) (*cryptoutil.KeyPair, cryptoutil.Address) {
	k := cryptoutil.KeyFromSeed([]byte(seed))
	return k, k.Address()
}

func signedTransfer(t *testing.T, fromSeed string, to cryptoutil.Address, value, fee, nonce uint64) *types.Transaction {
	t.Helper()
	k, from := keyAddr(fromSeed)
	tx := types.NewTransfer(from, to, value, fee, nonce)
	if err := tx.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	return tx
}

func signedInvoke(t *testing.T, fromSeed string, to cryptoutil.Address, nonce uint64, args ...vm.Word) *types.Transaction {
	t.Helper()
	k, from := keyAddr(fromSeed)
	tx := &types.Transaction{
		Kind: types.TxInvoke, From: from, To: to,
		Nonce: nonce, Fee: 3, GasLimit: 100_000,
		Data: vm.PackArgs(args...),
	}
	if err := tx.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	return tx
}

// blockWith wraps txs in a block whose coinbase covers reward+fees.
func blockWith(t *testing.T, proposer cryptoutil.Address, reward uint64, txs ...*types.Transaction) *types.Block {
	t.Helper()
	var fees uint64
	for _, tx := range txs {
		fees += tx.Fee
	}
	all := append([]*types.Transaction{types.NewCoinbase(proposer, reward+fees, 1)}, txs...)
	return types.NewBlock(cryptoutil.ZeroHash, 1, 0, proposer, all)
}

// assertMatchesSerial applies b at several widths and requires every
// outcome — root, receipts, error — to match serial execution. It
// returns the serial root (zero if the block is invalid).
func assertMatchesSerial(t *testing.T, parent *state.State, b *types.Block, reward uint64, widths ...int) cryptoutil.Hash {
	t.Helper()
	serial := parent.Copy()
	wantRecs, wantErr := serial.ApplyBlock(b, reward)
	var wantRoot cryptoutil.Hash
	if wantErr == nil {
		wantRoot = serial.Commit()
	}
	for _, w := range widths {
		ex := &Executor{Workers: w, Paranoid: true}
		st, recs, _, err := ex.ApplyBlock(parent, b, reward)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("workers=%d: err=%v, serial err=%v", w, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got := st.Commit(); got != wantRoot {
			t.Fatalf("workers=%d: root %s != serial %s", w, got.Short(), wantRoot.Short())
		}
		if err := ReceiptsEqual(recs, wantRecs); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
	}
	return wantRoot
}

func TestParallelMatchesSerialLowConflict(t *testing.T) {
	parent := state.New()
	_, proposer := keyAddr("proposer")
	var txs []*types.Transaction
	for i := 0; i < 16; i++ {
		seed := fmt.Sprintf("sender-%d", i)
		_, from := keyAddr(seed)
		parent.Credit(from, 1_000)
		_, to := keyAddr(fmt.Sprintf("recipient-%d", i))
		txs = append(txs, signedTransfer(t, seed, to, 100, 2, 0))
	}
	b := blockWith(t, proposer, 50, txs...)

	ex := &Executor{Workers: 4}
	_, _, stats, err := ex.ApplyBlock(parent, b, 50)
	if err != nil {
		t.Fatalf("ApplyBlock: %v", err)
	}
	if !stats.Parallel || stats.Runs != 16 || stats.MergedRuns != 16 || stats.Conflicts != 0 {
		t.Fatalf("stats = %+v, want 16 merged runs, 0 conflicts", stats)
	}
	assertMatchesSerial(t, parent, b, 50, 1, 2, 8)
}

func TestSharedRecipientConflictReplays(t *testing.T) {
	parent := state.New()
	_, proposer := keyAddr("proposer")
	_, hot := keyAddr("hot-recipient")
	var txs []*types.Transaction
	for i := 0; i < 8; i++ {
		seed := fmt.Sprintf("c-sender-%d", i)
		_, from := keyAddr(seed)
		parent.Credit(from, 1_000)
		// Every transfer credits the same recipient: lane 1 writes hot,
		// lane 2 reads it (Credit is a read-modify-write) — RW conflict.
		txs = append(txs, signedTransfer(t, seed, hot, 10, 1, 0))
	}
	b := blockWith(t, proposer, 50, txs...)

	ex := &Executor{Workers: 4}
	_, _, stats, err := ex.ApplyBlock(parent, b, 50)
	if err != nil {
		t.Fatalf("ApplyBlock: %v", err)
	}
	if stats.Conflicts != 1 || stats.MergedRuns != 1 || stats.ReplayedTxs != 7 {
		t.Fatalf("stats = %+v, want first lane merged and 7 replayed", stats)
	}
	assertMatchesSerial(t, parent, b, 50, 1, 2, 8)
}

func TestProposerReadTriggersReplay(t *testing.T) {
	parent := state.New()
	_, proposer := keyAddr("proposer")
	_, other := keyAddr("other")
	for _, seed := range []string{"p-a", "p-b"} {
		_, from := keyAddr(seed)
		parent.Credit(from, 1_000)
	}
	// First tx pays the proposer directly: its lane touches the account
	// where deferred fees accumulate, so nothing may merge optimistically.
	txs := []*types.Transaction{
		signedTransfer(t, "p-a", proposer, 10, 1, 0),
		signedTransfer(t, "p-b", other, 10, 1, 0),
	}
	b := blockWith(t, proposer, 50, txs...)

	ex := &Executor{Workers: 2}
	_, _, stats, err := ex.ApplyBlock(parent, b, 50)
	if err != nil {
		t.Fatalf("ApplyBlock: %v", err)
	}
	if stats.Conflicts != 1 || stats.ReplayedTxs != 2 {
		t.Fatalf("stats = %+v, want full replay from tx 1", stats)
	}
	assertMatchesSerial(t, parent, b, 50, 1, 2, 8)
}

func TestSameSenderRunIsOneLane(t *testing.T) {
	parent := state.New()
	_, proposer := keyAddr("proposer")
	_, from := keyAddr("chain-sender")
	parent.Credit(from, 10_000)
	var txs []*types.Transaction
	for n := uint64(0); n < 10; n++ {
		_, to := keyAddr(fmt.Sprintf("chain-to-%d", n))
		txs = append(txs, signedTransfer(t, "chain-sender", to, 10, 1, n))
	}
	b := blockWith(t, proposer, 50, txs...)

	ex := &Executor{Workers: 4}
	_, _, stats, err := ex.ApplyBlock(parent, b, 50)
	if err != nil {
		t.Fatalf("ApplyBlock: %v", err)
	}
	if stats.Runs != 1 || stats.Conflicts != 0 || stats.ReplayedTxs != 0 {
		t.Fatalf("stats = %+v, want one conflict-free lane", stats)
	}
	assertMatchesSerial(t, parent, b, 50, 1, 2, 8)
}

// counterSrc increments storage slot arg0 and logs nothing: the storage
// read-modify-write makes two invocations of the same slot conflict.
const counterSrc = `
PUSH 0
ARG
DUP
SLOAD
PUSH 1
ADD
SSTORE
STOP
`

func deployContract(t *testing.T, st *state.State, ownerSeed string, src string) cryptoutil.Address {
	t.Helper()
	k, owner := keyAddr(ownerSeed)
	st.Credit(owner, 1_000_000)
	tx := &types.Transaction{
		Kind: types.TxDeploy, From: owner, Nonce: st.Nonce(owner),
		Fee: 3, GasLimit: 100_000, Data: vm.MustAssemble(src),
	}
	if err := tx.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	_, miner := keyAddr("deploy-miner")
	rec, err := st.ApplyTx(tx, miner)
	if err != nil || !rec.OK {
		t.Fatalf("deploy: %v %+v", err, rec)
	}
	return rec.ContractAddress
}

func TestContractStorageConflicts(t *testing.T) {
	parent := state.New()
	parent.SetExecutor(vm.NewExecutor())
	_, proposer := keyAddr("proposer")
	counter := deployContract(t, parent, "owner", counterSrc)

	mk := func(n int, slot uint64) *types.Transaction {
		seed := fmt.Sprintf("vm-sender-%d", n)
		_, from := keyAddr(seed)
		parent.Credit(from, 1_000)
		return signedInvoke(t, seed, counter, 0, vm.WordFromUint64(slot))
	}

	t.Run("distinct slots merge", func(t *testing.T) {
		var txs []*types.Transaction
		for i := 0; i < 8; i++ {
			txs = append(txs, mk(i, uint64(i)))
		}
		b := blockWith(t, proposer, 50, txs...)
		ex := &Executor{Workers: 4}
		_, _, stats, err := ex.ApplyBlock(parent, b, 50)
		if err != nil {
			t.Fatalf("ApplyBlock: %v", err)
		}
		if stats.MergedRuns != 8 || stats.Conflicts != 0 {
			t.Fatalf("stats = %+v, want 8 merged lanes", stats)
		}
		assertMatchesSerial(t, parent, b, 50, 1, 2, 8)
	})

	t.Run("shared slot replays", func(t *testing.T) {
		var txs []*types.Transaction
		for i := 10; i < 16; i++ {
			txs = append(txs, mk(i, 99))
		}
		b := blockWith(t, proposer, 50, txs...)
		ex := &Executor{Workers: 4}
		st, _, stats, err := ex.ApplyBlock(parent, b, 50)
		if err != nil {
			t.Fatalf("ApplyBlock: %v", err)
		}
		if stats.Conflicts != 1 || stats.ReplayedTxs != 5 {
			t.Fatalf("stats = %+v, want suffix replay of 5", stats)
		}
		slot := vm.WordFromUint64(99)
		var got vm.Word
		copy(got[:], st.Storage(counter, slot[:]))
		if got.Uint64() != 6 {
			t.Fatalf("slot 99 = %d, want 6", got.Uint64())
		}
		assertMatchesSerial(t, parent, b, 50, 1, 2, 8)
	})
}

// rigidExecutor implements state.Executor without Fork/Absorb.
type rigidExecutor struct{ inner *vm.Executor }

func (r *rigidExecutor) Deploy(st *state.State, tx *types.Transaction) (cryptoutil.Address, uint64, error) {
	return r.inner.Deploy(st, tx)
}
func (r *rigidExecutor) Invoke(st *state.State, tx *types.Transaction) (uint64, error) {
	return r.inner.Invoke(st, tx)
}

func TestNonForkableExecutorReplaysContractTxs(t *testing.T) {
	parent := state.New()
	parent.SetExecutor(vm.NewExecutor())
	counter := deployContract(t, parent, "rigid-owner", counterSrc)
	parent.SetExecutor(&rigidExecutor{inner: vm.NewExecutor()})
	_, proposer := keyAddr("proposer")

	_, a := keyAddr("rigid-a")
	parent.Credit(a, 1_000)
	_, to := keyAddr("rigid-to")
	txs := []*types.Transaction{
		signedTransfer(t, "rigid-a", to, 10, 1, 0),
		func() *types.Transaction {
			seed := "rigid-b"
			_, from := keyAddr(seed)
			parent.Credit(from, 1_000)
			return signedInvoke(t, seed, counter, 0, vm.WordFromUint64(1))
		}(),
	}
	b := blockWith(t, proposer, 50, txs...)

	ex := &Executor{Workers: 2}
	st, _, stats, err := ex.ApplyBlock(parent, b, 50)
	if err != nil {
		t.Fatalf("ApplyBlock: %v", err)
	}
	if stats.MergedRuns != 1 || stats.ReplayedTxs != 1 {
		t.Fatalf("stats = %+v, want transfer merged and invoke replayed", stats)
	}
	serial := parent.Copy()
	if _, err := serial.ApplyBlock(b, 50); err != nil {
		t.Fatalf("serial: %v", err)
	}
	if st.Commit() != serial.Commit() {
		t.Fatal("root mismatch with non-forkable executor")
	}
}

func TestInvalidBlockRejectedAtEveryWidth(t *testing.T) {
	parent := state.New()
	_, proposer := keyAddr("proposer")
	_, from := keyAddr("bad-sender")
	parent.Credit(from, 1_000)
	_, to := keyAddr("bad-to")
	// Nonce 5 is invalid (account is at 0) at merge and serial alike.
	bad := signedTransfer(t, "bad-sender", to, 10, 1, 5)
	b := blockWith(t, proposer, 50, bad)

	for _, w := range []int{0, 1, 2, 8} {
		ex := &Executor{Workers: w}
		if _, _, _, err := ex.ApplyBlock(parent, b, 50); !errors.Is(err, state.ErrBadNonce) {
			t.Fatalf("workers=%d: err = %v, want ErrBadNonce", w, err)
		}
	}
}

func TestParentNeverMutated(t *testing.T) {
	parent := state.New()
	_, proposer := keyAddr("proposer")
	_, from := keyAddr("mut-sender")
	parent.Credit(from, 1_000)
	before := parent.Commit()

	_, to := keyAddr("mut-to")
	b := blockWith(t, proposer, 50, signedTransfer(t, "mut-sender", to, 10, 1, 0))
	ex := &Executor{Workers: 2}
	if _, _, _, err := ex.ApplyBlock(parent, b, 50); err != nil {
		t.Fatalf("ApplyBlock: %v", err)
	}
	if parent.Commit() != before {
		t.Fatal("parent state mutated by ApplyBlock")
	}
}
