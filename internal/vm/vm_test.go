package vm

import (
	"errors"
	"testing"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/state"
)

func env(st *state.State) *Env {
	return &Env{
		State:    st,
		Self:     cryptoutil.KeyFromSeed([]byte("contract")).Address(),
		Caller:   cryptoutil.KeyFromSeed([]byte("caller")).Address(),
		GasLimit: 100000,
	}
}

func run(t *testing.T, src string, e *Env) *Result {
	t.Helper()
	code, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	res, err := Execute(code, e)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want uint64
	}{
		{name: "add", src: "PUSH 2\nPUSH 3\nADD\nRETURN", want: 5},
		{name: "sub", src: "PUSH 10\nPUSH 4\nSUB\nRETURN", want: 6},
		{name: "mul", src: "PUSH 6\nPUSH 7\nMUL\nRETURN", want: 42},
		{name: "div", src: "PUSH 20\nPUSH 6\nDIV\nRETURN", want: 3},
		{name: "mod", src: "PUSH 20\nPUSH 6\nMOD\nRETURN", want: 2},
		{name: "lt true", src: "PUSH 1\nPUSH 2\nLT\nRETURN", want: 1},
		{name: "gt false", src: "PUSH 1\nPUSH 2\nGT\nRETURN", want: 0},
		{name: "eq", src: "PUSH 5\nPUSH 5\nEQ\nRETURN", want: 1},
		{name: "iszero", src: "PUSH 0\nISZERO\nRETURN", want: 1},
		{name: "and", src: "PUSH 12\nPUSH 10\nAND\nRETURN", want: 8},
		{name: "or", src: "PUSH 12\nPUSH 10\nOR\nRETURN", want: 14},
		{name: "xor", src: "PUSH 12\nPUSH 10\nXOR\nRETURN", want: 6},
		{name: "dup", src: "PUSH 3\nDUP\nADD\nRETURN", want: 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := run(t, tt.src, env(state.New()))
			if !res.HasRet || res.Return.Uint64() != tt.want {
				t.Fatalf("Return = %d, want %d", res.Return.Uint64(), tt.want)
			}
		})
	}
}

func TestSwapOrder(t *testing.T) {
	// Stack [10, 3] → SWAP → [3, 10] → SUB computes 3-10 (wrapping).
	res := run(t, "PUSH 10\nPUSH 3\nSWAP\nSUB\nRETURN", env(state.New()))
	got := bigOf(res.Return)
	if got.BitLen() < 250 {
		t.Fatalf("expected wrapped value, got %v", got)
	}
}

func TestSubWraps(t *testing.T) {
	res := run(t, "PUSH 3\nPUSH 5\nSUB\nRETURN", env(state.New()))
	// 3 - 5 mod 2^256 = 2^256 - 2, i.e. all 1s except last byte 0xfe.
	if res.Return[0] != 0xff || res.Return[31] != 0xfe {
		t.Fatalf("wrap result = %x", res.Return)
	}
}

func TestDivByZero(t *testing.T) {
	code := MustAssemble("PUSH 1\nPUSH 0\nDIV\nSTOP")
	if _, err := Execute(code, env(state.New())); !errors.Is(err, ErrDivByZero) {
		t.Fatalf("want ErrDivByZero, got %v", err)
	}
}

func TestJumpLoop(t *testing.T) {
	// Sum 1..5 with a loop: slot0 = counter, slot1 = acc.
	src := `
		PUSH 5          ; counter
	loop:
		DUP
		ISZERO
		PUSH @done
		JUMPI
		DUP             ; counter counter
		PUSH 1
		SLOAD           ; load acc from slot 1
		ADD             ; counter + acc
		PUSH 1
		SWAP
		SSTORE          ; slot1 = acc+counter
		PUSH 1
		SUB             ; counter-1
		PUSH @loop
		JUMP
	done:
		POP
		PUSH 1
		SLOAD
		RETURN
	`
	res := run(t, src, env(state.New()))
	if res.Return.Uint64() != 15 {
		t.Fatalf("loop sum = %d, want 15", res.Return.Uint64())
	}
}

func TestBadJump(t *testing.T) {
	code := MustAssemble("PUSH 9999\nJUMP")
	if _, err := Execute(code, env(state.New())); !errors.Is(err, ErrBadJump) {
		t.Fatalf("want ErrBadJump, got %v", err)
	}
}

func TestStorageRoundTrip(t *testing.T) {
	st := state.New()
	e := env(st)
	run(t, "PUSH 7\nPUSH 99\nSSTORE\nSTOP", e) // slot 7 = 99
	res := run(t, "PUSH 7\nSLOAD\nRETURN", e)
	if res.Return.Uint64() != 99 {
		t.Fatalf("SLOAD = %d, want 99", res.Return.Uint64())
	}
}

func TestEnvOpcodes(t *testing.T) {
	st := state.New()
	e := env(st)
	e.Value = 77
	e.Time = 123456
	e.Args = []Word{WordFromUint64(11), WordFromUint64(22)}

	if got := run(t, "CALLVALUE\nRETURN", e).Return.Uint64(); got != 77 {
		t.Fatalf("CALLVALUE = %d", got)
	}
	if got := run(t, "TIMESTAMP\nRETURN", e).Return.Uint64(); got != 123456 {
		t.Fatalf("TIMESTAMP = %d", got)
	}
	if got := run(t, "PUSH 1\nARG\nRETURN", e).Return.Uint64(); got != 22 {
		t.Fatalf("ARG 1 = %d", got)
	}
	if got := run(t, "ARGLEN\nRETURN", e).Return.Uint64(); got != 2 {
		t.Fatalf("ARGLEN = %d", got)
	}
	if got := run(t, "CALLER\nRETURN", e).Return.Address(); got != e.Caller {
		t.Fatalf("CALLER = %s", got.Short())
	}
	if got := run(t, "ADDRESS\nRETURN", e).Return.Address(); got != e.Self {
		t.Fatalf("ADDRESS = %s", got.Short())
	}
}

func TestTransferMovesValue(t *testing.T) {
	st := state.New()
	e := env(st)
	st.Credit(e.Self, 100)
	code := MustAssemble("CALLER\nPUSH 40\nTRANSFER\nSTOP")
	if _, err := Execute(code, e); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if st.Balance(e.Self) != 60 || st.Balance(e.Caller) != 40 {
		t.Fatalf("balances %d/%d", st.Balance(e.Self), st.Balance(e.Caller))
	}
	// Transfer beyond balance fails.
	code2 := MustAssemble("CALLER\nPUSH 1000\nTRANSFER\nSTOP")
	if _, err := Execute(code2, e); err == nil {
		t.Fatal("overdraft transfer must fail")
	}
}

func TestOutOfGas(t *testing.T) {
	st := state.New()
	e := env(st)
	e.GasLimit = 5
	code := MustAssemble("PUSH 1\nPUSH 2\nADD\nSTOP")
	res, err := Execute(code, e)
	if !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("want ErrOutOfGas, got %v", err)
	}
	if res.GasUsed != e.GasLimit {
		t.Fatalf("GasUsed = %d, want full limit", res.GasUsed)
	}
}

// gasCost is the gas schedule, written out: a price that moves changes
// every receipt's gas figure, so opTable is held to it.
var gasCost = map[Op]uint64{
	STOP: 0, PUSH: 3, PUSHW: 3, POP: 2, DUP: 3, SWAP: 3,
	ADD: 3, SUB: 3, MUL: 5, DIV: 5, MOD: 5,
	LT: 3, GT: 3, EQ: 3, ISZERO: 3, AND: 3, OR: 3, XOR: 3, NOT: 3,
	JUMP: 8, JUMPI: 10,
	SLOAD: 50, SSTORE: 200,
	CALLER: 2, ADDRESS: 2, CALLVALUE: 2, BALANCE: 20, TIMESTAMP: 2,
	ARG: 3, ARGLEN: 2,
	TRANSFER: 100, LOG: 30,
	RETURN: 0, REVERT: 0,
}

func TestOpTableIsTheGasSchedule(t *testing.T) {
	for i, in := range opTable {
		op := Op(i)
		want, known := gasCost[op]
		if known != (in.name != "") {
			t.Fatalf("opcode %d: in the table %v, in the schedule %v", i, in.name != "", known)
		}
		if known && in.gas != want {
			t.Fatalf("%s costs %d gas, want %d", op, in.gas, want)
		}
		if known && opsByName[in.name] != op {
			t.Fatalf("%s assembles to %d", in.name, opsByName[in.name])
		}
	}
}

func TestGasAccounting(t *testing.T) {
	res := run(t, "PUSH 1\nPUSH 2\nADD\nSTOP", env(state.New()))
	want := gasCost[PUSH]*2 + gasCost[ADD] + gasCost[STOP]
	if res.GasUsed != want {
		t.Fatalf("GasUsed = %d, want %d", res.GasUsed, want)
	}
}

func TestReadOnlyProtection(t *testing.T) {
	st := state.New()
	e := env(st)
	e.ReadOnly = true
	for _, src := range []string{
		"PUSH 1\nPUSH 2\nSSTORE\nSTOP",
		"CALLER\nPUSH 1\nTRANSFER\nSTOP",
		"PUSH 1\nPUSH 2\nLOG\nSTOP",
	} {
		if _, err := Execute(MustAssemble(src), e); !errors.Is(err, ErrWriteProtected) {
			t.Fatalf("want ErrWriteProtected for %q, got %v", src, err)
		}
	}
	// Reads are fine.
	if _, err := Execute(MustAssemble("PUSH 0\nSLOAD\nRETURN"), e); err != nil {
		t.Fatalf("read in constant call: %v", err)
	}
}

func TestRevert(t *testing.T) {
	if _, err := Execute(MustAssemble("REVERT"), env(state.New())); !errors.Is(err, ErrReverted) {
		t.Fatalf("want ErrReverted, got %v", err)
	}
}

func TestStackErrors(t *testing.T) {
	if _, err := Execute(MustAssemble("ADD"), env(state.New())); !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("want ErrStackUnderflow, got %v", err)
	}
	// Overflow: push in a loop.
	src := `
	loop:
		PUSH 1
		PUSH @loop
		JUMP
	`
	e := env(state.New())
	e.GasLimit = 1 << 30
	if _, err := Execute(MustAssemble(src), e); !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("want ErrStackOverflow, got %v", err)
	}
}

func TestUnknownOpcodeAndTruncated(t *testing.T) {
	if _, err := Execute([]byte{255}, env(state.New())); !errors.Is(err, ErrBadOpcode) {
		t.Fatalf("want ErrBadOpcode, got %v", err)
	}
	if _, err := Execute([]byte{byte(PUSH), 1, 2}, env(state.New())); !errors.Is(err, ErrTruncatedCode) {
		t.Fatalf("want ErrTruncatedCode, got %v", err)
	}
}

func TestEvents(t *testing.T) {
	res := run(t, "PUSH 7\nPUSH 42\nLOG\nSTOP", env(state.New()))
	if len(res.Events) != 1 {
		t.Fatalf("events = %d", len(res.Events))
	}
	ev := res.Events[0]
	if ev.Topic.Uint64() != 7 || ev.Value.Uint64() != 42 {
		t.Fatalf("event = %+v", ev)
	}
}

func TestAssembleErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{name: "unknown mnemonic", src: "FROB"},
		{name: "push without operand", src: "PUSH"},
		{name: "operand on plain op", src: "ADD 3"},
		{name: "undefined label", src: "PUSH @nowhere\nJUMP"},
		{name: "duplicate label", src: "a:\na:\nSTOP"},
		{name: "bad number", src: "PUSH zebra"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Assemble(tt.src); !errors.Is(err, ErrAssemble) {
				t.Fatalf("want ErrAssemble, got %v", err)
			}
		})
	}
}

func TestWordHelpers(t *testing.T) {
	a := cryptoutil.KeyFromSeed([]byte("w")).Address()
	if WordFromAddress(a).Address() != a {
		t.Fatal("address round trip failed")
	}
	if WordFromUint64(12345).Uint64() != 12345 {
		t.Fatal("uint64 round trip failed")
	}
	args := PackArgs(WordFromUint64(1), WordFromUint64(2))
	back := UnpackArgs(args)
	if len(back) != 2 || back[1].Uint64() != 2 {
		t.Fatal("args round trip failed")
	}
	if UnpackArgs(nil) != nil {
		t.Fatal("empty args should unpack to nil")
	}
}

// TestErrorTextAndGas pins each failure's text and the gas it charges:
// receipts carry both, so they are consensus data.
func TestErrorTextAndGas(t *testing.T) {
	full := make([]byte, 0, maxStack*9+2) // a full stack, then one more operand
	for i := 0; i < maxStack; i++ {
		full = append(full, MustAssemble("PUSH 1")...)
	}
	tests := []struct {
		name     string
		code     []byte
		readOnly bool
		gasLimit uint64
		want     string
		gas      uint64
	}{
		{name: "underflow", code: MustAssemble("ADD"), want: "vm: stack underflow at pc 1", gas: 3},
		{name: "underflow second operand", code: MustAssemble("PUSH 1\nADD"), want: "vm: stack underflow at pc 10", gas: 6},
		{name: "jumpi without condition", code: MustAssemble("x:\nPUSH @x\nJUMPI"), want: "vm: stack underflow at pc 10", gas: 13},
		{name: "overflow", code: append(full[:len(full):len(full)], MustAssemble("PUSH 1")...), want: "vm: stack overflow at pc 9217", gas: 3075},
		{name: "dup overflows", code: append(full[:len(full):len(full)], byte(DUP)), want: "vm: stack overflow at pc 9217", gas: 3075},
		{name: "truncated beats overflow", code: append(full[:len(full):len(full)], byte(PUSH), 0), want: "vm: truncated immediate operand", gas: 3075},
		{name: "truncated pushw", code: []byte{byte(PUSHW), 1}, want: "vm: truncated immediate operand", gas: 3},
		{name: "unknown opcode", code: []byte{byte(PUSH), 0, 0, 0, 0, 0, 0, 0, 1, 0}, want: "vm: unknown opcode: 0 at pc 9", gas: 3},
		{name: "out of gas", code: MustAssemble("PUSH 1\nPUSH 2\nADD\nSTOP"), gasLimit: 5, want: "vm: out of gas: need 8 at pc 9 (PUSH)", gas: 5},
		{name: "bad jump", code: MustAssemble("PUSH 9999\nJUMP"), want: "vm: jump to invalid destination: 9999", gas: 11},
		{name: "bad jumpi", code: MustAssemble("PUSH 1\nPUSH 9999\nJUMPI"), want: "vm: jump to invalid destination: 9999", gas: 16},
		{name: "div by zero", code: MustAssemble("PUSH 1\nPUSH 0\nDIV"), want: "vm: division by zero at pc 18", gas: 11},
		{name: "mod by zero", code: MustAssemble("PUSH 1\nPUSH 0\nMOD"), want: "vm: division by zero at pc 18", gas: 11},
		{name: "sstore read-only", code: MustAssemble("PUSH 1\nPUSH 2\nSSTORE"), readOnly: true, want: "vm: state write in constant call", gas: 206},
		{name: "sstore underflow read-only", code: MustAssemble("PUSH 1\nSSTORE"), readOnly: true, want: "vm: stack underflow at pc 10", gas: 203},
		{name: "overdraft", code: MustAssemble("CALLER\nPUSH 1000\nTRANSFER"), want: "vm: transfer: state: insufficient balance: 6fa280f8 has 0, needs 1000", gas: 105},
		{name: "revert", code: MustAssemble("PUSH 1\nREVERT"), want: "vm: execution reverted", gas: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := env(state.New())
			e.ReadOnly = tt.readOnly
			if tt.gasLimit != 0 {
				e.GasLimit = tt.gasLimit
			}
			res, err := Execute(tt.code, e)
			if err == nil {
				t.Fatal("Execute succeeded")
			}
			if err.Error() != tt.want || res.GasUsed != tt.gas {
				t.Fatalf("error %q, gas %d; want %q, gas %d", err, res.GasUsed, tt.want, tt.gas)
			}
		})
	}
}
