package passes

import (
	"llva/internal/core"
)

// InstCombine performs peephole algebraic simplifications on SSA:
// identities (x+0, x*1, x&x, x|0, x^x), strength reduction
// (multiply/divide by powers of two into shifts), cast-of-cast collapse,
// and comparison canonicalizations.
func InstCombine(m *core.Module, s *Stats) bool {
	var buf []*core.Instruction
	return forEachDefined(m, func(f *core.Function) bool {
		changed := false
		for {
			c := false
			for _, bb := range f.Blocks {
				buf = append(buf[:0], bb.Instructions()...)
				for _, in := range buf {
					if v := combine(m, in, s); v != nil {
						core.ReplaceAllUsesWith(in, v)
						in.EraseFromParent()
						c = true
					}
				}
			}
			if !c {
				break
			}
			changed = true
		}
		return changed
	})
}

func isConstInt(v core.Value, val int64) bool {
	c, ok := v.(*core.Constant)
	return ok && c.CK == core.ConstInt && c.Int64() == val
}

func asConst(v core.Value) *core.Constant {
	c, _ := v.(*core.Constant)
	return c
}

// log2 returns k if v == 2^k (k > 0), else -1.
func log2(v int64) int {
	if v <= 1 || v&(v-1) != 0 {
		return -1
	}
	k := 0
	for v > 1 {
		v >>= 1
		k++
	}
	return k
}

// combine returns a replacement value for in, or nil. It may insert new
// instructions before in.
func combine(m *core.Module, in *core.Instruction, s *Stats) core.Value {
	ctx := m.Types()
	op := in.Op()
	t := in.Type()
	if !in.HasResult() {
		return nil
	}
	bin := op.IsBinary() && in.NumOperands() == 2
	var x, y core.Value
	if bin {
		x, y = in.Operand(0), in.Operand(1)
	}

	// Canonicalize constants to the right for commutative integer ops.
	if bin && (op == core.OpAdd || op == core.OpMul || op == core.OpAnd ||
		op == core.OpOr || op == core.OpXor) {
		if asConst(x) != nil && asConst(y) == nil {
			in.SetOperand(0, y)
			in.SetOperand(1, x)
			x, y = in.Operand(0), in.Operand(1)
			s.Add("instcombine.canon", 1)
		}
	}

	switch op {
	case core.OpAdd:
		if t.IsInteger() && isConstInt(y, 0) {
			s.Add("instcombine.addzero", 1)
			return x
		}
	case core.OpSub:
		if t.IsInteger() && isConstInt(y, 0) {
			s.Add("instcombine.subzero", 1)
			return x
		}
		if t.IsInteger() && x == y {
			s.Add("instcombine.subself", 1)
			return core.NewUint(t, 0)
		}
	case core.OpMul:
		if !t.IsInteger() {
			break
		}
		if isConstInt(y, 1) {
			s.Add("instcombine.mulone", 1)
			return x
		}
		if isConstInt(y, 0) {
			s.Add("instcombine.mulzero", 1)
			return core.NewUint(t, 0)
		}
		if c := asConst(y); c != nil {
			if k := log2(c.Int64()); k > 0 {
				sh := core.NewInstruction(core.OpShl, t, x, core.NewUint(ctx.UByte(), uint64(k)))
				in.Parent().InsertBefore(in, sh)
				s.Add("instcombine.mul2shl", 1)
				return sh
			}
		}
	case core.OpDiv:
		if !t.IsInteger() {
			break
		}
		if isConstInt(y, 1) {
			s.Add("instcombine.divone", 1)
			return x
		}
		// Unsigned division by a power of two becomes a logical shift.
		if c := asConst(y); c != nil && !t.IsSigned() {
			if k := log2(c.Int64()); k > 0 {
				sh := core.NewInstruction(core.OpShr, t, x, core.NewUint(ctx.UByte(), uint64(k)))
				in.Parent().InsertBefore(in, sh)
				s.Add("instcombine.div2shr", 1)
				return sh
			}
		}
	case core.OpRem:
		// x rem 2^k (unsigned) -> x & (2^k - 1)
		if c := asConst(y); c != nil && t.IsInteger() && !t.IsSigned() {
			if k := log2(c.Int64()); k > 0 {
				and := core.NewInstruction(core.OpAnd, t, x, core.NewUint(t, uint64(c.Int64()-1)))
				in.Parent().InsertBefore(in, and)
				s.Add("instcombine.rem2and", 1)
				return and
			}
		}
	case core.OpAnd:
		if x == y {
			s.Add("instcombine.andself", 1)
			return x
		}
		if isConstInt(y, 0) {
			s.Add("instcombine.andzero", 1)
			return core.NewUint(t, 0)
		}
	case core.OpOr:
		if x == y {
			s.Add("instcombine.orself", 1)
			return x
		}
		if isConstInt(y, 0) {
			s.Add("instcombine.orzero", 1)
			return x
		}
	case core.OpXor:
		if x == y && t.IsInteger() {
			s.Add("instcombine.xorself", 1)
			return core.NewUint(t, 0)
		}
		if isConstInt(y, 0) {
			s.Add("instcombine.xorzero", 1)
			return x
		}
	case core.OpShl, core.OpShr:
		if isConstInt(in.Operand(1), 0) {
			s.Add("instcombine.shiftzero", 1)
			return in.Operand(0)
		}
	case core.OpCast:
		src := in.Operand(0)
		if src.Type() == t {
			s.Add("instcombine.castnoop", 1)
			return src
		}
		// cast (cast x to B) to C -> cast x to C, when B is at least as
		// wide as both (no information destroyed then recreated).
		if inner, ok := src.(*core.Instruction); ok && inner.Op() == core.OpCast {
			a := inner.Operand(0).Type()
			if a == t && core.ScalarOf(inner.Type()).Bits >= core.ScalarOf(a).Bits && sameClass(a, inner.Type()) {
				s.Add("instcombine.castcast", 1)
				return inner.Operand(0)
			}
		}
	case core.OpPhi:
		// phi with all-identical incoming values
		if in.NumOperands() >= 1 {
			first := in.Operand(0)
			same := true
			for i := 1; i < in.NumOperands(); i++ {
				if in.Operand(i) != first {
					same = false
					break
				}
			}
			if same && first != in {
				s.Add("instcombine.phisame", 1)
				return first
			}
		}
	case core.OpGetElementPtr:
		// gep p, 0 -> p (same type)
		if in.NumOperands() == 2 && isConstInt(in.Operand(1), 0) &&
			in.Type() == in.Operand(0).Type() {
			s.Add("instcombine.gepzero", 1)
			return in.Operand(0)
		}
		// gep (gep p, ..., i), 0, j... folding is handled by codegen's
		// addressing-mode fusion; keep the IR canonical here.
	}
	return nil
}

func sameClass(a, b *core.Type) bool {
	return a.IsInteger() && b.IsInteger() || a.IsFloat() && b.IsFloat()
}
