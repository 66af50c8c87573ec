// Package vm implements the Contract layer's execution engine: a
// 256-bit-word stack virtual machine ("SVM") with gas metering, contract
// storage, value transfer, and events. It plays the role the EVM plays
// in the paper's Ethereum examples (Section 2.5): executing a
// transaction costs gas paid to the block producer, while constant
// (read-only) calls — like the paper's say() — are free and run without
// a transaction.
//
// A Word is 32 big-endian bytes. ADD, SUB, MUL, DIV and MOD compute mod
// 2²⁵⁶ on four 64-bit limbs with math/bits (word.go), AND, OR and XOR
// work limb-wise, comparisons and NOT on the bytes, and one table indexed
// by opcode (opTable) gives every opcode's name, gas price, immediate
// size and stack effect to Execute, Analyze and the assembler. Execute
// allocates a fixed few objects a call, however many instructions run.
package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"dcsledger/internal/cryptoutil"
)

// Execution errors, matchable with errors.Is.
var (
	ErrOutOfGas       = errors.New("vm: out of gas")
	ErrStackUnderflow = errors.New("vm: stack underflow")
	ErrStackOverflow  = errors.New("vm: stack overflow")
	ErrBadJump        = errors.New("vm: jump to invalid destination")
	ErrBadOpcode      = errors.New("vm: unknown opcode")
	ErrReverted       = errors.New("vm: execution reverted")
	ErrWriteProtected = errors.New("vm: state write in constant call")
	ErrDivByZero      = errors.New("vm: division by zero")
	ErrTruncatedCode  = errors.New("vm: truncated immediate operand")
)

// Word is the VM's 256-bit machine word.
type Word [32]byte

// WordFromUint64 builds a word from an integer.
func WordFromUint64(v uint64) Word {
	var w Word
	binary.BigEndian.PutUint64(w[24:], v)
	return w
}

// WordFromAddress left-pads an address into a word.
func WordFromAddress(a cryptoutil.Address) Word {
	var w Word
	copy(w[12:], a[:])
	return w
}

// Uint64 truncates the word to its low 64 bits.
func (w Word) Uint64() uint64 { return binary.BigEndian.Uint64(w[24:]) }

// Address extracts the address embedded by WordFromAddress.
func (w Word) Address() cryptoutil.Address {
	var a cryptoutil.Address
	copy(a[:], w[12:])
	return a
}

// IsZero reports whether all bits are clear.
func (w Word) IsZero() bool { return w == Word{} }

// Op is a bytecode opcode.
type Op byte

// Opcodes. PUSH carries an 8-byte immediate; PUSHW a 32-byte one.
const (
	STOP Op = iota + 1
	PUSH
	PUSHW
	POP
	DUP
	SWAP
	ADD
	SUB
	MUL
	DIV
	MOD
	LT
	GT
	EQ
	ISZERO
	AND
	OR
	XOR
	NOT
	JUMP
	JUMPI
	SLOAD
	SSTORE
	CALLER
	ADDRESS
	CALLVALUE
	BALANCE
	TIMESTAMP
	ARG
	ARGLEN
	TRANSFER
	LOG
	RETURN
	REVERT
)

// opInfo is one opcode's row in opTable: its mnemonic, its gas price,
// the bytes of immediate operand that follow it in the code, and the
// stack words it pops and then pushes.
type opInfo struct {
	name              string
	gas               uint64
	imm, pops, pushes int
}

// opTable is the instruction set, indexed by opcode: Execute, Analyze
// and the assembler all read it. A row without a name is an unknown
// opcode.
var opTable = [256]opInfo{
	//          name         gas imm pops pushes
	STOP:      {"STOP", 0, 0, 0, 0},
	PUSH:      {"PUSH", 3, 8, 0, 1},
	PUSHW:     {"PUSHW", 3, 32, 0, 1},
	POP:       {"POP", 2, 0, 1, 0},
	DUP:       {"DUP", 3, 0, 1, 2},
	SWAP:      {"SWAP", 3, 0, 2, 2},
	ADD:       {"ADD", 3, 0, 2, 1},
	SUB:       {"SUB", 3, 0, 2, 1},
	MUL:       {"MUL", 5, 0, 2, 1},
	DIV:       {"DIV", 5, 0, 2, 1},
	MOD:       {"MOD", 5, 0, 2, 1},
	LT:        {"LT", 3, 0, 2, 1},
	GT:        {"GT", 3, 0, 2, 1},
	EQ:        {"EQ", 3, 0, 2, 1},
	ISZERO:    {"ISZERO", 3, 0, 1, 1},
	AND:       {"AND", 3, 0, 2, 1},
	OR:        {"OR", 3, 0, 2, 1},
	XOR:       {"XOR", 3, 0, 2, 1},
	NOT:       {"NOT", 3, 0, 1, 1},
	JUMP:      {"JUMP", 8, 0, 1, 0},
	JUMPI:     {"JUMPI", 10, 0, 2, 0},
	SLOAD:     {"SLOAD", 50, 0, 1, 1},
	SSTORE:    {"SSTORE", 200, 0, 2, 0},
	CALLER:    {"CALLER", 2, 0, 0, 1},
	ADDRESS:   {"ADDRESS", 2, 0, 0, 1},
	CALLVALUE: {"CALLVALUE", 2, 0, 0, 1},
	BALANCE:   {"BALANCE", 20, 0, 1, 1},
	TIMESTAMP: {"TIMESTAMP", 2, 0, 0, 1},
	ARG:       {"ARG", 3, 0, 1, 1},
	ARGLEN:    {"ARGLEN", 2, 0, 0, 1},
	TRANSFER:  {"TRANSFER", 100, 0, 2, 0},
	LOG:       {"LOG", 30, 0, 2, 0},
	RETURN:    {"RETURN", 0, 0, 1, 0},
	REVERT:    {"REVERT", 0, 0, 0, 0},
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if s := opTable[o].name; s != "" {
		return s
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

// StateAccess is the slice of world state the VM touches. The state
// package's State satisfies it. The key and value slices passed to
// Storage and SetStorage are the VM's scratch, reused after the call
// returns: an implementation copies what it keeps.
type StateAccess interface {
	Storage(addr cryptoutil.Address, key []byte) []byte
	SetStorage(addr cryptoutil.Address, key, value []byte)
	Balance(addr cryptoutil.Address) uint64
	Debit(addr cryptoutil.Address, amount uint64) error
	Credit(addr cryptoutil.Address, amount uint64)
}

// Event is an emitted log entry.
type Event struct {
	Contract cryptoutil.Address `json:"contract"`
	Topic    Word               `json:"topic"`
	Value    Word               `json:"value"`
}

// Env is the execution environment of one call.
type Env struct {
	State    StateAccess
	Self     cryptoutil.Address
	Caller   cryptoutil.Address
	Value    uint64
	Time     int64
	Args     []Word
	GasLimit uint64
	// ReadOnly forbids SSTORE/TRANSFER/LOG (constant calls).
	ReadOnly bool
}

// Result is the outcome of one execution.
type Result struct {
	Return  Word
	HasRet  bool
	GasUsed uint64
	Events  []Event
}

const maxStack = 1024

// Execute runs bytecode in the given environment. It allocates the
// Result, a scratch key and value for the storage opcodes, and the
// stack's growth past its first 16 words: nothing per instruction but
// LOG's event.
func Execute(code []byte, env *Env) (*Result, error) {
	res := &Result{}
	stack := make([]Word, 0, 16)
	// kv holds SLOAD's key and SSTORE's key and value: a slice passed to
	// StateAccess escapes, so it is taken from here, not from the stack.
	var kv [2]Word
	pc := 0

	for pc < len(code) {
		op := Op(code[pc])
		in := &opTable[op]
		if in.name == "" {
			return res, fmt.Errorf("%w: %d at pc %d", ErrBadOpcode, code[pc], pc)
		}
		if res.GasUsed+in.gas > env.GasLimit {
			res.GasUsed = env.GasLimit
			return res, fmt.Errorf("%w: need %d at pc %d (%s)", ErrOutOfGas, res.GasUsed+in.gas, pc, op)
		}
		res.GasUsed += in.gas
		pc++
		if pc+in.imm > len(code) {
			return res, ErrTruncatedCode
		}
		n := len(stack)
		if n < in.pops {
			return res, fmt.Errorf("%w at pc %d", ErrStackUnderflow, pc)
		}
		if n-in.pops+in.pushes > maxStack {
			return res, fmt.Errorf("%w at pc %d", ErrStackOverflow, pc)
		}
		// The operands are checked: an opcode pops stack[n-pops:] and
		// pushes its results in their place.
		switch op {
		case STOP:
			return res, nil
		case PUSH:
			stack = append(stack, WordFromUint64(binary.BigEndian.Uint64(code[pc:])))
		case PUSHW:
			stack = append(stack, Word(code[pc:pc+32]))
		case POP:
			stack = stack[:n-1]
		case DUP:
			stack = append(stack, stack[n-1])
		case SWAP:
			stack[n-2], stack[n-1] = stack[n-1], stack[n-2]
		case ADD, SUB, MUL, DIV, MOD, AND, OR, XOR:
			w, err := arith(op, &stack[n-2], &stack[n-1])
			if err != nil {
				return res, fmt.Errorf("%w at pc %d", err, pc-1)
			}
			stack[n-2] = w
			stack = stack[:n-1]
		case LT, GT, EQ:
			// A Word is big-endian: its byte order is its numeric order.
			cmp := bytes.Compare(stack[n-2][:], stack[n-1][:])
			stack[n-2] = boolWord(op == LT && cmp < 0 || op == GT && cmp > 0 || op == EQ && cmp == 0)
			stack = stack[:n-1]
		case ISZERO:
			stack[n-1] = boolWord(stack[n-1].IsZero())
		case NOT:
			w := &stack[n-1]
			for i := range w {
				w[i] = ^w[i]
			}
		case JUMP, JUMPI:
			dest := stack[n-1].Uint64()
			taken := op == JUMP || !stack[n-2].IsZero()
			stack = stack[:n-in.pops]
			if taken {
				if dest >= uint64(len(code)) {
					return res, fmt.Errorf("%w: %d", ErrBadJump, dest)
				}
				pc = int(dest)
			}
		case SLOAD:
			kv[0] = stack[n-1]
			stack[n-1] = Word{}
			copy(stack[n-1][:], env.State.Storage(env.Self, kv[0][:]))
		case SSTORE:
			if env.ReadOnly {
				return res, ErrWriteProtected
			}
			kv[0], kv[1] = stack[n-2], stack[n-1]
			stack = stack[:n-2]
			env.State.SetStorage(env.Self, kv[0][:], kv[1][:])
		case CALLER:
			stack = append(stack, WordFromAddress(env.Caller))
		case ADDRESS:
			stack = append(stack, WordFromAddress(env.Self))
		case CALLVALUE:
			stack = append(stack, WordFromUint64(env.Value))
		case BALANCE:
			stack[n-1] = WordFromUint64(env.State.Balance(stack[n-1].Address()))
		case TIMESTAMP:
			stack = append(stack, WordFromUint64(uint64(env.Time)))
		case ARG:
			idx := stack[n-1].Uint64()
			stack[n-1] = Word{}
			if idx < uint64(len(env.Args)) {
				stack[n-1] = env.Args[idx]
			}
		case ARGLEN:
			stack = append(stack, WordFromUint64(uint64(len(env.Args))))
		case TRANSFER:
			if env.ReadOnly {
				return res, ErrWriteProtected
			}
			to, amt := stack[n-2].Address(), stack[n-1].Uint64()
			stack = stack[:n-2]
			if err := env.State.Debit(env.Self, amt); err != nil {
				return res, fmt.Errorf("vm: transfer: %w", err)
			}
			env.State.Credit(to, amt)
		case LOG:
			if env.ReadOnly {
				return res, ErrWriteProtected
			}
			res.Events = append(res.Events, Event{Contract: env.Self, Topic: stack[n-2], Value: stack[n-1]})
			stack = stack[:n-2]
		case RETURN:
			res.Return = stack[n-1]
			res.HasRet = true
			return res, nil
		case REVERT:
			return res, ErrReverted
		}
		pc += in.imm
	}
	return res, nil
}

func boolWord(b bool) Word {
	if b {
		return WordFromUint64(1)
	}
	return Word{}
}
