package vm

import (
	"errors"
	"fmt"
	"math/big"
	"testing"
)

// The oracle: every arithmetic, comparison and bitwise opcode computed
// with math/big, which the VM itself does not use.

var two256 = new(big.Int).Lsh(big.NewInt(1), 256)

func bigOf(w Word) *big.Int { return new(big.Int).SetBytes(w[:]) }

func wordOf(x *big.Int) Word {
	var w Word
	new(big.Int).Mod(x, two256).FillBytes(w[:])
	return w
}

func oracle(op Op, a, b Word) (Word, error) {
	x, y, z := bigOf(a), bigOf(b), new(big.Int)
	truth := func(t bool) Word {
		if t {
			return wordOf(big.NewInt(1))
		}
		return Word{}
	}
	switch op {
	case ADD:
		z.Add(x, y)
	case SUB:
		z.Sub(x, y)
	case MUL:
		z.Mul(x, y)
	case DIV, MOD:
		if y.Sign() == 0 {
			return Word{}, ErrDivByZero
		}
		if op == DIV {
			z.Div(x, y)
		} else {
			z.Mod(x, y)
		}
	case AND:
		z.And(x, y)
	case OR:
		z.Or(x, y)
	case XOR:
		z.Xor(x, y)
	case LT:
		return truth(x.Cmp(y) < 0), nil
	case GT:
		return truth(x.Cmp(y) > 0), nil
	case EQ:
		return truth(x.Cmp(y) == 0), nil
	case ISZERO:
		return truth(x.Sign() == 0), nil
	case NOT:
		z.Sub(z.Sub(two256, big.NewInt(1)), x)
	default:
		panic(fmt.Sprintf("no oracle for %s", op))
	}
	return wordOf(z), nil
}

var (
	binaryOps = []Op{ADD, SUB, MUL, DIV, MOD, LT, GT, EQ, AND, OR, XOR}
	unaryOps  = []Op{ISZERO, NOT}
)

// checkOp runs PUSHW for each operand, then op and RETURN, and holds
// the result, or the error and its text, to the oracle's.
func checkOp(t *testing.T, op Op, operands ...Word) {
	t.Helper()
	var code []byte
	for _, w := range operands {
		code = append(append(code, byte(PUSHW)), w[:]...)
	}
	code = append(code, byte(op), byte(RETURN))
	b := Word{}
	if len(operands) == 2 {
		b = operands[1]
	}
	want, wantErr := oracle(op, operands[0], b)
	res, err := Execute(code, &Env{GasLimit: 100})
	if wantErr != nil {
		wantText := fmt.Sprintf("%v at pc %d", wantErr, 33*len(operands))
		if !errors.Is(err, wantErr) || err.Error() != wantText {
			t.Fatalf("%s %x: error %v, want %q", op, operands, err, wantText)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s %x: %v", op, operands, err)
	}
	if res.Return != want {
		t.Fatalf("%s %x = %x, want %x", op, operands, res.Return, want)
	}
}

// limbWord builds a word from limbs given most significant first.
func limbWord(hiToLo ...uint64) Word {
	var x limbs
	for i, v := range hiToLo {
		x[len(hiToLo)-1-i] = v
	}
	return x.word()
}

// fuzzSeeds are the edges of the arithmetic: 0, 1, around 2⁶⁴, 2¹²⁸ and
// 2²⁵⁶−1, and operands of one to four limbs whose top limb has its high
// bit set or clear (the division's normalization shifts 0 or some bits).
// The last three, with 2¹⁹² as the dividend, are Hacker's Delight's
// divmnu test vectors scaled to 64-bit digits; the first needs the
// division's add-back step, which random operands almost never reach.
var fuzzSeeds = []Word{
	{},
	limbWord(1),
	limbWord(^uint64(0)),
	limbWord(1, 0),
	limbWord(1, 1),
	limbWord(1, 0, 0),
	limbWord(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)),
	limbWord(0x0123456789abcdef),
	limbWord(0x8000000000000001, 0xfedcba9876543210),
	limbWord(0x00000000ffffffff, 0x0123456789abcdef, 0x1111111111111111),
	limbWord(0xfffffffffffffffe, 0x8000000000000000, 0x7fffffffffffffff, 0x0000000000000003),
	limbWord(0x7fffffffffffffff, 0x8000000000000000, 0, 0),
	limbWord(0x8000000000000000, 0, 1),
	limbWord(0x2000000000000000, 0, 1),
	limbWord(1, 0, 0, 0),
}

func FuzzWordOps(f *testing.F) {
	for _, a := range fuzzSeeds {
		for _, b := range fuzzSeeds {
			f.Add(a[:], b[:])
		}
	}
	f.Fuzz(func(t *testing.T, x, y []byte) {
		// An operand is the first 32 bytes, right-aligned when shorter.
		var a, b Word
		copy(a[max(0, 32-len(x)):], x)
		copy(b[max(0, 32-len(y)):], y)
		for _, op := range binaryOps {
			checkOp(t, op, a, b)
		}
		for _, op := range unaryOps {
			checkOp(t, op, a)
		}
	})
}
