package state

import (
	"errors"
	"fmt"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/types"
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

func TestCreditDebit(t *testing.T) {
	s := New()
	_, a := keyAddr("a")
	s.Credit(a, 100)
	if s.Balance(a) != 100 {
		t.Fatalf("Balance = %d", s.Balance(a))
	}
	if err := s.Debit(a, 40); err != nil {
		t.Fatalf("Debit: %v", err)
	}
	if s.Balance(a) != 60 {
		t.Fatalf("Balance = %d", s.Balance(a))
	}
	if err := s.Debit(a, 61); !errors.Is(err, ErrInsufficientBalance) {
		t.Fatalf("want ErrInsufficientBalance, got %v", err)
	}
}

func TestApplyTransfer(t *testing.T) {
	s := New()
	_, alice := keyAddr("alice")
	_, bob := keyAddr("bob")
	_, miner := keyAddr("miner")
	s.Credit(alice, 1000)

	tx := signedTransfer(t, "alice", bob, 300, 5, 0)
	rec, err := s.ApplyTx(tx, miner)
	if err != nil {
		t.Fatalf("ApplyTx: %v", err)
	}
	if !rec.OK {
		t.Fatal("transfer receipt should be OK")
	}
	if s.Balance(alice) != 695 || s.Balance(bob) != 300 || s.Balance(miner) != 5 {
		t.Fatalf("balances = %d/%d/%d", s.Balance(alice), s.Balance(bob), s.Balance(miner))
	}
	if s.Nonce(alice) != 1 {
		t.Fatal("nonce must advance")
	}
}

func TestApplyTransferErrors(t *testing.T) {
	_, bob := keyAddr("bob")
	_, miner := keyAddr("miner")

	t.Run("bad nonce", func(t *testing.T) {
		s := New()
		_, alice := keyAddr("alice")
		s.Credit(alice, 1000)
		tx := signedTransfer(t, "alice", bob, 10, 1, 5)
		if _, err := s.ApplyTx(tx, miner); !errors.Is(err, ErrBadNonce) {
			t.Fatalf("want ErrBadNonce, got %v", err)
		}
	})
	t.Run("insufficient balance", func(t *testing.T) {
		s := New()
		tx := signedTransfer(t, "alice", bob, 10, 1, 0)
		if _, err := s.ApplyTx(tx, miner); !errors.Is(err, ErrInsufficientBalance) {
			t.Fatalf("want ErrInsufficientBalance, got %v", err)
		}
	})
	t.Run("unsigned", func(t *testing.T) {
		s := New()
		_, alice := keyAddr("alice")
		s.Credit(alice, 1000)
		tx := types.NewTransfer(alice, bob, 10, 1, 0)
		if _, err := s.ApplyTx(tx, miner); !errors.Is(err, types.ErrNoSignature) {
			t.Fatalf("want ErrNoSignature, got %v", err)
		}
	})
	t.Run("replay rejected", func(t *testing.T) {
		s := New()
		_, alice := keyAddr("alice")
		s.Credit(alice, 1000)
		tx := signedTransfer(t, "alice", bob, 10, 1, 0)
		if _, err := s.ApplyTx(tx, miner); err != nil {
			t.Fatalf("first apply: %v", err)
		}
		if _, err := s.ApplyTx(tx, miner); !errors.Is(err, ErrBadNonce) {
			t.Fatalf("replay must fail with ErrBadNonce, got %v", err)
		}
	})
	t.Run("standalone coinbase rejected", func(t *testing.T) {
		s := New()
		cb := types.NewCoinbase(bob, 50, 0)
		if _, err := s.ApplyTx(cb, miner); !errors.Is(err, ErrBadCoinbase) {
			t.Fatalf("want ErrBadCoinbase, got %v", err)
		}
	})
}

func TestDeployInvokeWithoutExecutor(t *testing.T) {
	s := New()
	_, alice := keyAddr("alice")
	_, miner := keyAddr("miner")
	k, _ := keyAddr("alice")
	s.Credit(alice, 100)
	tx := &types.Transaction{Kind: types.TxDeploy, From: alice, Value: 10, Fee: 3, Nonce: 0, Data: []byte("code")}
	if err := tx.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	rec, err := s.ApplyTx(tx, miner)
	if err != nil {
		t.Fatalf("ApplyTx: %v", err)
	}
	if rec.OK {
		t.Fatal("deploy without executor must fail")
	}
	// Fee is paid, value refunded, nonce advanced.
	if s.Balance(alice) != 97 || s.Balance(miner) != 3 || s.Nonce(alice) != 1 {
		t.Fatalf("balances %d/%d nonce %d", s.Balance(alice), s.Balance(miner), s.Nonce(alice))
	}
}

// stubExecutor lets tests drive the deploy/invoke paths.
type stubExecutor struct {
	failInvoke bool
}

func (e *stubExecutor) Deploy(st *State, tx *types.Transaction) (cryptoutil.Address, uint64, error) {
	addr := cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("contract"), tx.From[:]))
	st.SetCode(addr, tx.Data)
	return addr, 21, nil
}

func (e *stubExecutor) Invoke(st *State, tx *types.Transaction) (uint64, error) {
	if e.failInvoke {
		st.SetStorage(tx.To, []byte("poison"), []byte("should revert"))
		return 7, fmt.Errorf("contract aborted")
	}
	st.SetStorage(tx.To, []byte("k"), tx.Data)
	return 9, nil
}

func TestDeployAndInvoke(t *testing.T) {
	s := New()
	s.SetExecutor(&stubExecutor{})
	k, alice := keyAddr("alice")
	_, miner := keyAddr("miner")
	s.Credit(alice, 1000)

	deploy := &types.Transaction{Kind: types.TxDeploy, From: alice, Value: 50, Fee: 10, Nonce: 0, Data: []byte("CODE")}
	if err := deploy.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	rec, err := s.ApplyTx(deploy, miner)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if !rec.OK || rec.ContractAddress.IsZero() {
		t.Fatalf("deploy receipt %+v", rec)
	}
	if !s.IsContract(rec.ContractAddress) {
		t.Fatal("contract code missing")
	}
	if s.Balance(rec.ContractAddress) != 50 {
		t.Fatal("endowment not credited")
	}

	invoke := &types.Transaction{Kind: types.TxInvoke, From: alice, To: rec.ContractAddress, Fee: 5, Nonce: 1, Data: []byte("input")}
	if err := invoke.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	rec2, err := s.ApplyTx(invoke, miner)
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if !rec2.OK || rec2.GasUsed != 9 {
		t.Fatalf("invoke receipt %+v", rec2)
	}
	if string(s.Storage(rec.ContractAddress, []byte("k"))) != "input" {
		t.Fatal("contract storage not written")
	}
}

func TestFailedInvokeRevertsButKeepsFee(t *testing.T) {
	s := New()
	s.SetExecutor(&stubExecutor{failInvoke: true})
	k, alice := keyAddr("alice")
	_, miner := keyAddr("miner")
	_, target := keyAddr("contract-addr")
	s.Credit(alice, 100)

	invoke := &types.Transaction{Kind: types.TxInvoke, From: alice, To: target, Value: 20, Fee: 4, Nonce: 0}
	if err := invoke.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	rec, err := s.ApplyTx(invoke, miner)
	if err != nil {
		t.Fatalf("ApplyTx: %v", err)
	}
	if rec.OK {
		t.Fatal("failed invoke must not be OK")
	}
	if s.Storage(target, []byte("poison")) != nil {
		t.Fatal("contract effects must revert")
	}
	// Value refunded, fee kept, nonce advanced.
	if s.Balance(alice) != 96 || s.Balance(miner) != 4 || s.Balance(target) != 0 {
		t.Fatalf("balances %d/%d/%d", s.Balance(alice), s.Balance(miner), s.Balance(target))
	}
	if s.Nonce(alice) != 1 {
		t.Fatal("nonce must advance even on contract failure")
	}
}

func blockWith(t *testing.T, height uint64, proposer cryptoutil.Address, reward uint64, txs ...*types.Transaction) *types.Block {
	t.Helper()
	var fees uint64
	for _, tx := range txs {
		fees += tx.Fee
	}
	all := append([]*types.Transaction{types.NewCoinbase(proposer, reward+fees, height)}, txs...)
	return types.NewBlock(cryptoutil.ZeroHash, height, 0, proposer, all)
}

func TestApplyBlock(t *testing.T) {
	s := New()
	_, alice := keyAddr("alice")
	_, bob := keyAddr("bob")
	_, miner := keyAddr("miner")
	s.Credit(alice, 1000)

	b := blockWith(t, 1, miner, 50,
		signedTransfer(t, "alice", bob, 100, 2, 0),
		signedTransfer(t, "alice", bob, 200, 3, 1),
	)
	receipts, err := s.ApplyBlock(b, 50)
	if err != nil {
		t.Fatalf("ApplyBlock: %v", err)
	}
	if len(receipts) != 3 {
		t.Fatalf("receipts = %d", len(receipts))
	}
	if s.Balance(miner) != 55 { // 50 subsidy + 5 fees
		t.Fatalf("miner = %d, want 55", s.Balance(miner))
	}
	if s.Balance(alice) != 695 || s.Balance(bob) != 300 {
		t.Fatalf("alice/bob = %d/%d", s.Balance(alice), s.Balance(bob))
	}
}

func TestApplyBlockRejects(t *testing.T) {
	_, miner := keyAddr("miner")
	_, bob := keyAddr("bob")

	t.Run("no coinbase", func(t *testing.T) {
		s := New()
		_, alice := keyAddr("alice")
		s.Credit(alice, 100)
		b := types.NewBlock(cryptoutil.ZeroHash, 1, 0, miner,
			[]*types.Transaction{signedTransfer(t, "alice", bob, 1, 0, 0)})
		if _, err := s.ApplyBlock(b, 50); !errors.Is(err, ErrBadCoinbase) {
			t.Fatalf("want ErrBadCoinbase, got %v", err)
		}
	})
	t.Run("inflated coinbase", func(t *testing.T) {
		s := New()
		b := types.NewBlock(cryptoutil.ZeroHash, 1, 0, miner,
			[]*types.Transaction{types.NewCoinbase(miner, 1_000_000, 1)})
		if _, err := s.ApplyBlock(b, 50); !errors.Is(err, ErrBadCoinbase) {
			t.Fatalf("want ErrBadCoinbase, got %v", err)
		}
	})
	t.Run("second coinbase", func(t *testing.T) {
		s := New()
		b := types.NewBlock(cryptoutil.ZeroHash, 1, 0, miner, []*types.Transaction{
			types.NewCoinbase(miner, 50, 1),
			types.NewCoinbase(miner, 50, 1),
		})
		if _, err := s.ApplyBlock(b, 50); !errors.Is(err, ErrBadCoinbase) {
			t.Fatalf("want ErrBadCoinbase, got %v", err)
		}
	})
	t.Run("wrong height nonce", func(t *testing.T) {
		s := New()
		b := types.NewBlock(cryptoutil.ZeroHash, 2, 0, miner,
			[]*types.Transaction{types.NewCoinbase(miner, 50, 1)})
		if _, err := s.ApplyBlock(b, 50); !errors.Is(err, ErrBadCoinbase) {
			t.Fatalf("want ErrBadCoinbase, got %v", err)
		}
	})
}

func TestCopyIsolation(t *testing.T) {
	s := New()
	_, a := keyAddr("a")
	s.Credit(a, 10)
	s.SetStorage(a, []byte("k"), []byte("v"))
	c := s.Copy()
	c.Credit(a, 5)
	c.SetStorage(a, []byte("k"), []byte("changed"))
	if s.Balance(a) != 10 {
		t.Fatal("copy leaked balance change")
	}
	if string(s.Storage(a, []byte("k"))) != "v" {
		t.Fatal("copy leaked storage change")
	}
}

func TestCommitDeterministicAndSensitive(t *testing.T) {
	build := func(extra bool) cryptoutil.Hash {
		s := New()
		_, a := keyAddr("a")
		_, b := keyAddr("b")
		s.Credit(a, 100)
		s.Credit(b, 200)
		s.SetStorage(a, []byte("slot"), []byte("value"))
		if extra {
			s.Credit(b, 1)
		}
		return s.Commit()
	}
	if build(false) != build(false) {
		t.Fatal("commit must be deterministic")
	}
	if build(false) == build(true) {
		t.Fatal("commit must reflect balance changes")
	}
}

func TestCommitReflectsStorage(t *testing.T) {
	s := New()
	_, a := keyAddr("a")
	s.Credit(a, 1)
	r1 := s.Commit()
	s.SetStorage(a, []byte("k"), []byte("v"))
	r2 := s.Commit()
	if r1 == r2 {
		t.Fatal("storage writes must change the state root")
	}
}
