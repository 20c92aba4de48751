package core

import "math"

// Scalar describes how values of a scalar type live in a canonical 64-bit
// word, the one representation the constant folder, the interpreter and
// the simulated processors compute on. An integer's word is its value
// truncated to Bits and re-extended: sign-extended when Signed, zero-
// extended otherwise. A bool is a 1-bit unsigned integer, a pointer a
// 64-bit one. A float's word is the float64 bits of its value, rounded
// to float32 when Bits is 32.
//
// The methods on Scalar are LLVA's scalar semantics, stated once
// (DESIGN.md, "Scalar semantics"). Operands must be canonical words of
// the described type; results are.
type Scalar struct {
	Bits   uint16 // 1, 8, 16, 32 or 64; any other width canonicalises as 64
	Signed bool
	Float  bool
}

var scalarOfKind = [...]Scalar{
	BoolKind:   {Bits: 1},
	UByteKind:  {Bits: 8},
	SByteKind:  {Bits: 8, Signed: true},
	UShortKind: {Bits: 16},
	ShortKind:  {Bits: 16, Signed: true},
	UIntKind:   {Bits: 32},
	IntKind:    {Bits: 32, Signed: true},
	ULongKind:  {Bits: 64},
	LongKind:   {Bits: 64, Signed: true},
	FloatKind:  {Bits: 32, Float: true},
	DoubleKind: {Bits: 64, Float: true},
}

// ScalarOf returns t's descriptor. A pointer, and any type that is not a
// scalar, is a 64-bit unsigned word.
func ScalarOf(t *Type) Scalar {
	if k := t.Kind(); int(k) < len(scalarOfKind) && scalarOfKind[k].Bits != 0 {
		return scalarOfKind[k]
	}
	return Scalar{Bits: 64}
}

// A Fault is why an operation has no result word. Both faults trap at run
// time, with the divide-by-zero trap; an instruction whose exceptions are
// disabled (!noexc) yields 0 instead.
type Fault uint8

const (
	NoFault     Fault = iota
	DivByZero         // div or rem by zero
	DivOverflow       // div or rem of MinInt64 by -1
)

// width is the bit width s canonicalises at.
func (s Scalar) width() uint {
	switch s.Bits {
	case 1, 8, 16, 32:
		return uint(s.Bits)
	}
	return 64
}

// trunc is w truncated to s's width and zero-extended.
func (s Scalar) trunc(w uint64) uint64 {
	sh := 64 - s.width()
	return w << sh >> sh
}

// Canon returns the canonical word of w's low Bits bits.
func (s Scalar) Canon(w uint64) uint64 {
	if s.Float {
		if s.Bits == 32 {
			return math.Float64bits(float64(float32(math.Float64frombits(w))))
		}
		return w
	}
	sh := 64 - s.width()
	if s.Signed {
		return uint64(int64(w<<sh) >> sh)
	}
	return w << sh >> sh
}

// Binary evaluates a binary opcode — arithmetic, bitwise, shift or
// comparison — on two words of type s. A comparison's result is a bool
// word (0 or 1); any other result is a word of type s. A shift's amount y
// is a ubyte word.
func (s Scalar) Binary(op Opcode, x, y uint64) (uint64, Fault) {
	if s.Float {
		return s.floatBinary(op, x, y), NoFault
	}
	switch op {
	case OpAdd:
		return s.Canon(x + y), NoFault
	case OpSub:
		return s.Canon(x - y), NoFault
	case OpMul:
		return s.Canon(x * y), NoFault
	case OpDiv, OpRem:
		return s.divide(op, x, y)
	case OpAnd:
		return s.Canon(x & y), NoFault
	case OpOr:
		return s.Canon(x | y), NoFault
	case OpXor:
		return s.Canon(x ^ y), NoFault
	case OpShl, OpShr:
		return s.shift(op, x, y), NoFault
	}
	if s.Signed {
		a, b := int64(x), int64(y)
		return compare(op, a == b, a < b), NoFault
	}
	a, b := s.trunc(x), s.trunc(y)
	return compare(op, a == b, a < b), NoFault
}

// divide is div or rem. A zero divisor faults, and so does MinInt64 / -1,
// whose quotient does not fit; a narrower signed width wraps instead, as
// its quotient fits the 64-bit word it is computed in.
func (s Scalar) divide(op Opcode, x, y uint64) (uint64, Fault) {
	if s.trunc(y) == 0 {
		return 0, DivByZero
	}
	if s.Signed {
		a, b := int64(x), int64(y)
		if a == math.MinInt64 && b == -1 {
			return 0, DivOverflow
		}
		if op == OpDiv {
			return s.Canon(uint64(a / b)), NoFault
		}
		return s.Canon(uint64(a % b)), NoFault
	}
	a, b := s.trunc(x), s.trunc(y)
	if op == OpDiv {
		return s.Canon(a / b), NoFault
	}
	return s.Canon(a % b), NoFault
}

// shift is shl, or shr: arithmetic when s is signed, logical otherwise.
// An amount of Bits or more shifts every bit out: the result is 0, or -1
// for an arithmetic right shift of a negative value.
func (s Scalar) shift(op Opcode, x, amt uint64) uint64 {
	n := amt & 0xff
	if n >= uint64(s.Bits) {
		if op == OpShr && s.Signed && int64(x) < 0 {
			return ^uint64(0)
		}
		return 0
	}
	switch {
	case op == OpShl:
		return s.Canon(x << n)
	case s.Signed:
		return s.Canon(uint64(int64(x) >> n))
	}
	return s.Canon(s.trunc(x) >> n)
}

// floatBinary is Binary on floats: IEEE arithmetic (a division by zero
// is an infinity or NaN, no fault), rem is math.Mod, and every comparison
// with a NaN is false but setne.
func (s Scalar) floatBinary(op Opcode, x, y uint64) uint64 {
	a, b := math.Float64frombits(x), math.Float64frombits(y)
	var r float64
	switch op {
	case OpAdd:
		r = a + b
	case OpSub:
		r = a - b
	case OpMul:
		r = a * b
	case OpDiv:
		r = a / b
	case OpRem:
		r = math.Mod(a, b)
	case OpSetEQ:
		return boolWord(a == b)
	case OpSetNE:
		return boolWord(a != b)
	case OpSetLT:
		return boolWord(a < b)
	case OpSetGT:
		return boolWord(a > b)
	case OpSetLE:
		return boolWord(a <= b)
	case OpSetGE:
		return boolWord(a >= b)
	default:
		return 0
	}
	return s.Canon(math.Float64bits(r))
}

// compare maps an ordered pair's (equal, less) through a comparison
// opcode.
func compare(op Opcode, eq, lt bool) uint64 {
	switch op {
	case OpSetEQ:
		return boolWord(eq)
	case OpSetNE:
		return boolWord(!eq)
	case OpSetLT:
		return boolWord(lt)
	case OpSetGT:
		return boolWord(!lt && !eq)
	case OpSetLE:
		return boolWord(lt || eq)
	case OpSetGE:
		return boolWord(!lt)
	}
	return 0
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Cast converts a word of type s to a word of type to. An integer
// source is read at its own width and signedness; a cast to bool is a
// test for non-zero; a float to an integer is converted by fromFloat.
func (s Scalar) Cast(to Scalar, w uint64) uint64 {
	switch {
	case s.Float && to.Float:
		return to.Canon(w)
	case s.Float:
		f := math.Float64frombits(w)
		if to.Bits == 1 {
			return boolWord(f != 0)
		}
		return to.fromFloat(f)
	case to.Float:
		var f float64
		if s.Signed {
			f = float64(int64(w))
		} else {
			f = float64(s.trunc(w))
		}
		return to.Canon(math.Float64bits(f))
	case to.Bits == 1:
		return boolWord(s.trunc(w) != 0)
	}
	return to.Canon(w)
}

// fromFloat converts f to the integer type s: NaN is 0, a value beyond
// s's range saturates at the end of the range it lies beyond, and any
// other value truncates toward zero. Every Go conversion here is of an
// in-range value, so the result does not depend on the host.
func (s Scalar) fromFloat(f float64) uint64 {
	n := int(s.width())
	if s.Signed {
		lim := math.Ldexp(1, n-1) // -MinInt of the width, exactly
		switch {
		case f != f:
			return 0
		case f >= lim:
			return 1<<(n-1) - 1
		case f <= -lim:
			return ^uint64(0) << (n - 1)
		}
		return uint64(int64(f))
	}
	switch {
	case !(f > 0): // NaN, zeros and negatives
		return 0
	case f >= math.Ldexp(1, n):
		return ^uint64(0) >> (64 - n)
	}
	return uint64(f)
}

// Word returns a scalar constant's canonical word: the one the
// interpreter computes with and a translator materialises. Null, undef
// and zeroinitializer are 0. A constant with no word — the address of a
// global, or an aggregate — reports false.
func (c *Constant) Word() (uint64, bool) {
	switch c.CK {
	case ConstInt, ConstBool:
		return ScalarOf(c.ty).Canon(c.I), true
	case ConstFloat:
		return ScalarOf(c.ty).Canon(math.Float64bits(c.F)), true
	case ConstNull, ConstUndef, ConstZero:
		return 0, true
	}
	return 0, false
}

// constOfWord is the constant of type t whose word is w, or nil when t
// has none: a pointer other than null, or a type that is not a scalar.
func constOfWord(t *Type, w uint64) *Constant {
	switch {
	case t.IsInteger():
		return NewUint(t, w)
	case t.IsFloat():
		return NewFloat(t, math.Float64frombits(w))
	case t.Kind() == BoolKind:
		return NewBool(t, w&1 != 0)
	case t.Kind() == PointerKind && w == 0:
		return NewNull(t)
	}
	return nil
}
