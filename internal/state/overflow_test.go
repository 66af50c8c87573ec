package state

import (
	"errors"
	"math"
	"testing"

	"dcsledger/internal/types"
)

// TestApplyTxRejectsCostOverflowMint is the regression test for the
// uint64 mint vector: a signed transfer with Value = 2^64-1, Fee = 1
// wrapped Cost() to 0, passed the balance check with any funded
// account, wrap-debited the sender, and credited To with 2^64-1 —
// minting nearly the whole uint64 range from nothing.
func TestApplyTxRejectsCostOverflowMint(t *testing.T) {
	s := New()
	_, victim := keyAddr("mint-victim")
	_, miner := keyAddr("mint-miner")
	tx := signedTransfer(t, "mint-attacker", victim, math.MaxUint64, 1, 0)
	_, attacker := keyAddr("mint-attacker")
	s.Credit(attacker, 50) // any funded balance passed the wrapped check

	if _, err := s.ApplyTx(tx, miner); !errors.Is(err, types.ErrCostOverflow) {
		t.Fatalf("ApplyTx = %v, want ErrCostOverflow", err)
	}
	if got := s.Balance(victim); got != 0 {
		t.Fatalf("victim credited %d from nothing", got)
	}
	if got := s.Balance(attacker); got != 50 {
		t.Fatalf("attacker balance %d, want 50 untouched", got)
	}
	if got := s.Nonce(attacker); got != 0 {
		t.Fatalf("attacker nonce %d, want 0", got)
	}
}

// TestApplyBlockRejectsFeeSumOverflow: a block stuffed with huge fees
// must not wrap the expected coinbase value back into range.
func TestApplyBlockRejectsFeeSumOverflow(t *testing.T) {
	s := New()
	_, to := keyAddr("fee-to")
	_, proposer := keyAddr("fee-proposer")

	tx1 := signedTransfer(t, "fee-a", to, 0, math.MaxUint64, 0)
	tx2 := signedTransfer(t, "fee-b", to, 0, 2, 0)
	cb := types.NewCoinbase(proposer, 1, 0) // wrapped sum would be 1
	b := &types.Block{
		Header: types.BlockHeader{Proposer: proposer},
		Txs:    []*types.Transaction{cb, tx1, tx2},
	}
	if _, err := s.ApplyBlock(b, 0); !errors.Is(err, ErrBadCoinbase) {
		t.Fatalf("ApplyBlock = %v, want ErrBadCoinbase", err)
	}
}

// TestApplyBlockRejectsGasLimitOverCap: the gas cap is a validity rule,
// so a block that carries a transaction over it is refused whole, as a
// pool refuses the transaction.
func TestApplyBlockRejectsGasLimitOverCap(t *testing.T) {
	s := New()
	k, from := keyAddr("gas-sender")
	_, proposer := keyAddr("gas-proposer")
	s.Credit(from, 100)
	tx := &types.Transaction{Kind: types.TxInvoke, From: from, Fee: 1, GasLimit: types.MaxGasLimit + 1}
	if err := tx.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	b := &types.Block{
		Header: types.BlockHeader{Proposer: proposer},
		Txs:    []*types.Transaction{types.NewCoinbase(proposer, 1, 0), tx},
	}
	if _, err := s.ApplyBlock(b, 0); !errors.Is(err, types.ErrGasLimit) {
		t.Fatalf("ApplyBlock = %v, want ErrGasLimit", err)
	}
}
