package vm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/state"
	"dcsledger/internal/types"
)

// Executor adapts the VM to the state package's Executor interface so
// TxDeploy / TxInvoke transactions run SVM bytecode. It also offers
// ConstantCall, the gas-free read-only query path of Section 2.5.
type Executor struct {
	// DeployGasPerByte prices contract code storage.
	DeployGasPerByte uint64
	// Now supplies block time to TIMESTAMP; set by the node per block.
	Now int64
	// StrictDeploy rejects contracts that fail static analysis — the
	// pre-commitment validation the paper's Section 5.3 calls for.
	StrictDeploy bool
}

var _ state.Executor = (*Executor)(nil)

// ErrNoCode reports an invoke of an address without contract code.
var ErrNoCode = errors.New("vm: no contract code at address")

// NewExecutor returns an executor with the default gas schedule.
func NewExecutor() *Executor {
	return &Executor{DeployGasPerByte: 5}
}

// ErrRejectedByAnalysis reports a deploy refused by static analysis.
var ErrRejectedByAnalysis = errors.New("vm: contract rejected by static analysis")

// Deploy implements state.Executor: stores tx.Data as contract code at
// a deterministic address derived from the creator and nonce.
func (e *Executor) Deploy(st *state.State, tx *types.Transaction) (cryptoutil.Address, uint64, error) {
	gas := uint64(len(tx.Data)) * e.DeployGasPerByte
	if gas > tx.GasLimit {
		return cryptoutil.ZeroAddress, tx.GasLimit, fmt.Errorf("%w: deploy needs %d gas", ErrOutOfGas, gas)
	}
	if e.StrictDeploy {
		if report := Analyze(tx.Data); !report.OK() {
			return cryptoutil.ZeroAddress, gas, fmt.Errorf("%w: %s", ErrRejectedByAnalysis, report.Issues[0])
		}
	}
	addr := ContractAddress(tx.From, tx.Nonce)
	st.SetCode(addr, tx.Data)
	return addr, gas, nil
}

// Invoke implements state.Executor: runs the contract at tx.To with
// tx.Data as packed arguments.
func (e *Executor) Invoke(st *state.State, tx *types.Transaction) (uint64, error) {
	code := st.Code(tx.To)
	if len(code) == 0 {
		return 0, fmt.Errorf("%w: %s", ErrNoCode, tx.To.Short())
	}
	env := &Env{
		State:    st,
		Self:     tx.To,
		Caller:   tx.From,
		Value:    tx.Value,
		Time:     e.Now,
		Args:     UnpackArgs(tx.Data),
		GasLimit: tx.GasLimit,
	}
	res, err := Execute(code, env)
	if err != nil {
		return gasUsed(res, tx.GasLimit), err
	}
	return res.GasUsed, nil
}

// ConstantCall runs a read-only query against a contract: no gas is
// charged and no state may be written (the paper's free say() call).
func (e *Executor) ConstantCall(st *state.State, self cryptoutil.Address, caller cryptoutil.Address, args []Word) (Word, error) {
	code := st.Code(self)
	if len(code) == 0 {
		return Word{}, fmt.Errorf("%w: %s", ErrNoCode, self.Short())
	}
	env := &Env{
		State:    st,
		Self:     self,
		Caller:   caller,
		Time:     e.Now,
		Args:     args,
		GasLimit: types.MaxGasLimit, // bounded only to terminate loops
		ReadOnly: true,
	}
	res, err := Execute(code, env)
	if err != nil {
		return Word{}, err
	}
	return res.Return, nil
}

// Fork implements state.ForkableExecutor: an executor holds only its
// configuration (gas schedule, block time, analysis policy), so the fork
// is a copy and speculation lanes share nothing mutable.
func (e *Executor) Fork() state.Executor {
	f := *e
	return &f
}

// Absorb implements state.ForkableExecutor: a fork accumulates nothing
// to merge back.
func (e *Executor) Absorb(state.Executor) {}

var _ state.ForkableExecutor = (*Executor)(nil)

func gasUsed(res *Result, limit uint64) uint64 {
	if res == nil {
		return limit
	}
	return res.GasUsed
}

// ContractAddress derives the deterministic address of a contract
// created by (creator, nonce).
func ContractAddress(creator cryptoutil.Address, nonce uint64) cryptoutil.Address {
	var b8 [8]byte
	binary.BigEndian.PutUint64(b8[:], nonce)
	return cryptoutil.AddressFromHash(cryptoutil.HashBytes([]byte("vm/contract"), creator[:], b8[:]))
}

// PackArgs encodes words as transaction input data.
func PackArgs(args ...Word) []byte {
	out := make([]byte, 0, len(args)*32)
	for _, a := range args {
		out = append(out, a[:]...)
	}
	return out
}

// UnpackArgs decodes transaction input data into words; a trailing
// partial word is zero-padded.
func UnpackArgs(data []byte) []Word {
	var out []Word
	for i := 0; i < len(data); i += 32 {
		var w Word
		copy(w[:], data[i:])
		out = append(out, w)
	}
	return out
}
