package core

// FoldBinary evaluates a binary opcode over two constants, returning the
// folded constant or nil when the operation cannot be folded: it faults
// (division by zero, which must trap at run time), or an operand has no
// defined word (undef, or the address of a global).
func FoldBinary(ctx *TypeContext, op Opcode, x, y *Constant) *Constant {
	if x.ty != y.ty {
		return nil
	}
	if op.IsComparison() {
		return fold(op, x, y, ctx.Bool())
	}
	return fold(op, x, y, x.ty)
}

// FoldShift folds shl/shr where the amount is a ubyte constant.
func FoldShift(op Opcode, x *Constant, amt *Constant) *Constant {
	return fold(op, x, amt, x.ty)
}

// fold evaluates x op y in x's type to a constant of type result.
func fold(op Opcode, x, y *Constant, result *Type) *Constant {
	a, okx := foldWord(x)
	b, oky := foldWord(y)
	if !okx || !oky {
		return nil
	}
	w, fault := ScalarOf(x.ty).Binary(op, a, b)
	if fault != NoFault {
		return nil
	}
	return constOfWord(result, w)
}

// foldWord is c's word, or false for an undef, which folds to nothing.
func foldWord(c *Constant) (uint64, bool) {
	if c.CK == ConstUndef {
		return 0, false
	}
	return c.Word()
}

// FoldCast evaluates a cast of a constant to the destination type, or nil
// when not foldable: the operand is the address of a global, or a
// non-zero integer becomes a pointer.
func FoldCast(c *Constant, to *Type) *Constant {
	if c.ty == to {
		return c
	}
	if c.CK == ConstUndef {
		return NewUndef(to)
	}
	w, ok := c.Word()
	if !ok {
		return nil
	}
	return constOfWord(to, ScalarOf(c.ty).Cast(ScalarOf(to), w))
}
