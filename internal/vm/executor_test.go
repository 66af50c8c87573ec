package vm

import (
	"errors"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
)

// counterSrc is a contract whose invoke adds arg0 to slot 0, logs the
// new total, and whose constant call returns slot 0.
const counterSrc = `
	PUSH 0
	SLOAD       ; current total
	PUSH 0
	ARG         ; amount
	ADD
	DUP
	PUSH 0
	SWAP
	SSTORE      ; slot0 = total+amount
	PUSH 1
	SWAP
	LOG         ; topic 1, new total
	STOP
`

// querySrc reads slot 0 (constant call target).
const querySrc = "PUSH 0\nSLOAD\nRETURN"

func deployAndInvoke(t *testing.T) (*Executor, *state.State, cryptoutil.Address) {
	t.Helper()
	st := state.New()
	ex := NewExecutor()
	st.SetExecutor(ex)
	k := cryptoutil.KeyFromSeed([]byte("owner"))
	miner := cryptoutil.KeyFromSeed([]byte("miner")).Address()
	st.Credit(k.Address(), 1_000_000)

	deploy := &types.Transaction{
		Kind:     types.TxDeploy,
		From:     k.Address(),
		Nonce:    0,
		Fee:      5000,
		GasLimit: 100000,
		Data:     MustAssemble(counterSrc),
	}
	if err := deploy.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	rec, err := st.ApplyTx(deploy, miner)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if !rec.OK {
		t.Fatalf("deploy receipt: %+v", rec)
	}
	return ex, st, rec.ContractAddress
}

func TestDeployInvokeConstantCall(t *testing.T) {
	_, st, contract := deployAndInvoke(t)
	k := cryptoutil.KeyFromSeed([]byte("owner"))
	miner := cryptoutil.KeyFromSeed([]byte("miner")).Address()

	for i, amount := range []uint64{10, 32} {
		invoke := &types.Transaction{
			Kind:     types.TxInvoke,
			From:     k.Address(),
			To:       contract,
			Nonce:    uint64(i + 1),
			Fee:      1000,
			GasLimit: 10000,
			Data:     PackArgs(WordFromUint64(amount)),
		}
		if err := invoke.Sign(k); err != nil {
			t.Fatalf("Sign: %v", err)
		}
		rec, err := st.ApplyTx(invoke, miner)
		if err != nil {
			t.Fatalf("invoke: %v", err)
		}
		if !rec.OK || rec.GasUsed == 0 {
			t.Fatalf("invoke receipt: %+v", rec)
		}
	}

	// The committed total lives in storage slot 0.
	var w Word
	copy(w[:], st.Storage(contract, make([]byte, 32)))
	if w.Uint64() != 42 {
		t.Fatalf("slot0 = %d, want 42", w.Uint64())
	}
}

func TestConstantCallReturnsValue(t *testing.T) {
	st := state.New()
	ex := NewExecutor()
	contract := cryptoutil.KeyFromSeed([]byte("c")).Address()
	st.SetCode(contract, MustAssemble(querySrc))
	key := make([]byte, 32)
	val := WordFromUint64(1234)
	st.SetStorage(contract, key, val[:])

	got, err := ex.ConstantCall(st, contract, cryptoutil.ZeroAddress, nil)
	if err != nil {
		t.Fatalf("ConstantCall: %v", err)
	}
	if got.Uint64() != 1234 {
		t.Fatalf("ConstantCall = %d", got.Uint64())
	}
	// Constant calls cost the caller nothing and change nothing.
	if st.Balance(cryptoutil.ZeroAddress) != 0 {
		t.Fatal("constant call must be free")
	}
}

func TestConstantCallCannotWrite(t *testing.T) {
	st := state.New()
	ex := NewExecutor()
	contract := cryptoutil.KeyFromSeed([]byte("c")).Address()
	st.SetCode(contract, MustAssemble("PUSH 0\nPUSH 1\nSSTORE\nSTOP"))
	if _, err := ex.ConstantCall(st, contract, cryptoutil.ZeroAddress, nil); !errors.Is(err, ErrWriteProtected) {
		t.Fatalf("want ErrWriteProtected, got %v", err)
	}
}

func TestInvokeNoCode(t *testing.T) {
	st := state.New()
	ex := NewExecutor()
	st.SetExecutor(ex)
	k := cryptoutil.KeyFromSeed([]byte("owner"))
	miner := cryptoutil.KeyFromSeed([]byte("miner")).Address()
	st.Credit(k.Address(), 1000)
	invoke := &types.Transaction{
		Kind: types.TxInvoke, From: k.Address(),
		To:    cryptoutil.KeyFromSeed([]byte("empty")).Address(),
		Nonce: 0, Fee: 10, GasLimit: 1000,
	}
	if err := invoke.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	rec, err := st.ApplyTx(invoke, miner)
	if err != nil {
		t.Fatalf("ApplyTx: %v", err)
	}
	if rec.OK {
		t.Fatal("invoking empty address must fail")
	}
}

func TestDeployGasLimit(t *testing.T) {
	st := state.New()
	ex := NewExecutor()
	st.SetExecutor(ex)
	k := cryptoutil.KeyFromSeed([]byte("owner"))
	miner := cryptoutil.KeyFromSeed([]byte("miner")).Address()
	st.Credit(k.Address(), 1000)
	deploy := &types.Transaction{
		Kind: types.TxDeploy, From: k.Address(), Nonce: 0, Fee: 10,
		GasLimit: 1, // too small for the code
		Data:     MustAssemble(counterSrc),
	}
	if err := deploy.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	rec, err := st.ApplyTx(deploy, miner)
	if err != nil {
		t.Fatalf("ApplyTx: %v", err)
	}
	if rec.OK {
		t.Fatal("deploy must fail when gas limit is below code cost")
	}
}

func TestContractAddressDeterministic(t *testing.T) {
	a := cryptoutil.KeyFromSeed([]byte("a")).Address()
	if ContractAddress(a, 1) != ContractAddress(a, 1) {
		t.Fatal("contract address must be deterministic")
	}
	if ContractAddress(a, 1) == ContractAddress(a, 2) {
		t.Fatal("nonce must vary contract address")
	}
}

func TestInvokeOutOfGasRevertsViaState(t *testing.T) {
	ex, st, contract := deployAndInvoke(t)
	_ = ex
	k := cryptoutil.KeyFromSeed([]byte("owner"))
	miner := cryptoutil.KeyFromSeed([]byte("miner")).Address()
	invoke := &types.Transaction{
		Kind: types.TxInvoke, From: k.Address(), To: contract,
		Nonce: 1, Fee: 100, GasLimit: 3, // far too little
		Data: PackArgs(WordFromUint64(5)),
	}
	if err := invoke.Sign(k); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	rec, err := st.ApplyTx(invoke, miner)
	if err != nil {
		t.Fatalf("ApplyTx: %v", err)
	}
	if rec.OK {
		t.Fatal("out-of-gas invoke must fail")
	}
	// Storage untouched.
	if got := st.Storage(contract, make([]byte, 32)); len(got) != 0 {
		t.Fatalf("storage must be reverted, got %x", got)
	}
}
