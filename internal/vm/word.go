package vm

import (
	"encoding/binary"
	"math/bits"
)

// limbs is a word as four 64-bit limbs, least significant first. The
// arithmetic opcodes read their operands into limbs, compute mod 2²⁵⁶
// with math/bits, and write the result back as a big-endian Word.
type limbs [4]uint64

func (w *Word) limbs() limbs {
	return limbs{
		binary.BigEndian.Uint64(w[24:]),
		binary.BigEndian.Uint64(w[16:]),
		binary.BigEndian.Uint64(w[8:]),
		binary.BigEndian.Uint64(w[:8]),
	}
}

func (x *limbs) word() Word {
	var w Word
	binary.BigEndian.PutUint64(w[24:], x[0])
	binary.BigEndian.PutUint64(w[16:], x[1])
	binary.BigEndian.PutUint64(w[8:], x[2])
	binary.BigEndian.PutUint64(w[:8], x[3])
	return w
}

// arith computes a op b for the two-operand arithmetic and bitwise
// opcodes, mod 2²⁵⁶. DIV and MOD by zero fail with ErrDivByZero.
func arith(op Op, a, b *Word) (Word, error) {
	x, y := a.limbs(), b.limbs()
	var z limbs
	switch op {
	case ADD:
		var c uint64
		for i := range z {
			z[i], c = bits.Add64(x[i], y[i], c)
		}
	case SUB:
		var c uint64
		for i := range z {
			z[i], c = bits.Sub64(x[i], y[i], c)
		}
	case MUL:
		z = mul(&x, &y)
	case DIV, MOD:
		if y == (limbs{}) {
			return Word{}, ErrDivByZero
		}
		q, r := divmod(&x, &y)
		z = q
		if op == MOD {
			z = r
		}
	case AND:
		for i := range z {
			z[i] = x[i] & y[i]
		}
	case OR:
		for i := range z {
			z[i] = x[i] | y[i]
		}
	case XOR:
		for i := range z {
			z[i] = x[i] ^ y[i]
		}
	}
	return z.word(), nil
}

// mul returns x·y mod 2²⁵⁶: the schoolbook product, keeping only the
// partial products that land in the low four limbs.
func mul(x, y *limbs) limbs {
	var z limbs
	for i := range x {
		var carry uint64
		for j := 0; i+j < len(z); j++ {
			hi, lo := bits.Mul64(x[i], y[j])
			var c uint64
			lo, c = bits.Add64(lo, z[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			z[i+j], carry = lo, hi
		}
	}
	return z
}

// used is the number of significant limbs: 0 for zero.
func (x *limbs) used() int {
	n := len(x)
	for n > 0 && x[n-1] == 0 {
		n--
	}
	return n
}

// divmod returns x / y and x mod y for y ≠ 0: Knuth's algorithm D
// (TAOCP vol. 2, §4.3.1) on 64-bit digits, as Hacker's Delight's divmnu
// writes it, with bits.Div64 for the two-by-one digit steps.
func divmod(x, y *limbs) (q, r limbs) {
	n, m := y.used(), x.used()
	if m < n {
		return limbs{}, *x
	}
	if n == 1 {
		var rem uint64
		for i := m - 1; i >= 0; i-- {
			q[i], rem = bits.Div64(rem, x[i], y[0])
		}
		return q, limbs{rem}
	}
	// Normalize: shift both so the divisor's top digit has its high bit
	// set, which keeps each quotient-digit estimate at most two too big.
	// A shift by 64 yields 0 in Go, so s = 0 needs no special case.
	s := uint(bits.LeadingZeros64(y[n-1]))
	var v limbs
	for i := n - 1; i > 0; i-- {
		v[i] = y[i]<<s | y[i-1]>>(64-s)
	}
	v[0] = y[0] << s
	var u [len(limbs{}) + 1]uint64
	u[m] = x[m-1] >> (64 - s)
	for i := m - 1; i > 0; i-- {
		u[i] = x[i]<<s | x[i-1]>>(64-s)
	}
	u[0] = x[0] << s

	for j := m - n; j >= 0; j-- {
		// Estimate the digit from the top two digits of the remainder
		// over the divisor's top digit. u[j+n] > v[n-1] cannot happen;
		// when they are equal the estimate is the largest digit, and its
		// remainder overflows a digit exactly when no correction is due.
		var qhat, rhat uint64
		fits := true
		if u[j+n] >= v[n-1] {
			qhat = ^uint64(0)
			var c uint64
			rhat, c = bits.Add64(u[j+n-1], v[n-1], 0)
			fits = c == 0
		} else {
			qhat, rhat = bits.Div64(u[j+n], u[j+n-1], v[n-1])
		}
		for fits {
			hi, lo := bits.Mul64(qhat, v[n-2])
			if hi < rhat || hi == rhat && lo <= u[j+n-2] {
				break
			}
			qhat--
			var c uint64
			rhat, c = bits.Add64(rhat, v[n-1], 0)
			fits = c == 0
		}
		// Multiply and subtract; if that went below zero the estimate
		// was one too big: add the divisor back once.
		var borrow, carry uint64
		for i := 0; i < n; i++ {
			hi, lo := bits.Mul64(qhat, v[i])
			var c uint64
			lo, c = bits.Add64(lo, carry, 0)
			carry = hi + c
			u[i+j], borrow = bits.Sub64(u[i+j], lo, borrow)
		}
		// The digit u[j+n] is not read again: only its borrow counts,
		// and adding back carries out of it exactly what it borrowed.
		_, borrow = bits.Sub64(u[j+n], carry, borrow)
		if borrow != 0 {
			qhat--
			var c uint64
			for i := 0; i < n; i++ {
				u[i+j], c = bits.Add64(u[i+j], v[i], c)
			}
		}
		q[j] = qhat
	}
	// Unnormalize the remainder, which is the low n digits of u.
	for i := 0; i < n-1; i++ {
		r[i] = u[i]>>s | u[i+1]<<(64-s)
	}
	r[n-1] = u[n-1] >> s
	return q, r
}
