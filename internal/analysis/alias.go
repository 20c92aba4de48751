package analysis

import "llva/internal/core"

// AliasResult is the outcome of an alias query.
type AliasResult int

const (
	// MayAlias means the two pointers may refer to overlapping memory.
	MayAlias AliasResult = iota
	// NoAlias means they provably never overlap.
	NoAlias
	// MustAlias means they provably refer to the same address.
	MustAlias
)

// baseObject walks a pointer value to its base allocation site, looking
// through getelementptr (and recording whether any GEP was crossed).
func baseObject(v core.Value) (core.Value, bool) {
	gep := false
	for {
		in, ok := v.(*core.Instruction)
		if !ok {
			return v, gep
		}
		if in.Op() != core.OpGetElementPtr {
			return v, gep
		}
		gep = true
		v = in.Operand(0)
	}
}

// isIdentified reports whether v is a distinct allocation site: an
// alloca, a global variable, or a null constant.
func isIdentified(v core.Value) bool {
	switch x := v.(type) {
	case *core.GlobalVariable:
		return true
	case *core.Instruction:
		return x.Op() == core.OpAlloca
	case *core.Constant:
		return x.CK == core.ConstNull
	}
	return false
}

// Alias performs a simple but sound base-object alias analysis, the style
// of disambiguation the typed LLVA representation supports directly
// (paper, Section 3.3: type, control-flow and SSA information enable
// sophisticated alias analysis in the translator).
func Alias(a, b core.Value) AliasResult {
	if a == b {
		return MustAlias
	}
	ba, gepA := baseObject(a)
	bb, gepB := baseObject(b)

	if ba == bb {
		// Same base: compare GEP index paths when both are constant.
		ia, aok := a.(*core.Instruction)
		ib, bok := b.(*core.Instruction)
		if aok && bok && ia.Op() == core.OpGetElementPtr && ib.Op() == core.OpGetElementPtr &&
			ia.Operand(0) == ib.Operand(0) {
			return aliasGEPs(ia, ib)
		}
		return MayAlias
	}

	// Distinct identified objects never alias.
	if isIdentified(ba) && isIdentified(bb) {
		return NoAlias
	}
	// A non-escaping alloca's address is invisible outside the function:
	// it cannot alias any pointer derived from a different base.
	if isNonEscapingAlloca(ba) || isNonEscapingAlloca(bb) {
		return NoAlias
	}
	_ = gepA
	_ = gepB
	return MayAlias
}

func isNonEscapingAlloca(v core.Value) bool {
	in, ok := v.(*core.Instruction)
	return ok && in.Op() == core.OpAlloca && !Escapes(in)
}

// aliasGEPs compares two GEPs off the same pointer operand.
func aliasGEPs(a, b *core.Instruction) AliasResult {
	na, nb := a.NumOperands(), b.NumOperands()
	n := na
	if nb < n {
		n = nb
	}
	allEqual := true
	for i := 1; i < n; i++ {
		ca, aok := a.Operand(i).(*core.Constant)
		cb, bok := b.Operand(i).(*core.Constant)
		if !aok || !bok {
			// A dynamic index: can't compare further.
			return MayAlias
		}
		if ca.Int64() != cb.Int64() {
			// First differing constant index: paths diverge into disjoint
			// subobjects.
			if i == n-1 && na == nb {
				return NoAlias
			}
			return NoAlias
		}
	}
	if na != nb {
		// One path is a prefix of the other: enclosing object overlaps
		// its member.
		return MayAlias
	}
	if allEqual {
		return MustAlias
	}
	return MayAlias
}

// Base returns the base allocation site of a pointer (walking GEPs) and
// whether that base is an identified local object (an alloca).
func Base(v core.Value) (core.Value, bool) {
	b, _ := baseObject(v)
	in, ok := b.(*core.Instruction)
	return b, ok && in.Op() == core.OpAlloca
}

// Escapes reports whether the address produced by an alloca (or global)
// may escape the current function's direct loads/stores: it is passed to
// a call, stored somewhere, cast, or returned. Non-escaping allocas can
// be promoted or have their loads/stores freely reordered.
//
// The walk follows getelementptrs only, and each has one pointer operand
// defined before it, so it visits a tree and needs no visited set.
func Escapes(v core.Value) bool {
	var visit func(core.Value) bool
	visit = func(p core.Value) bool {
		var uses []core.Use
		switch x := p.(type) {
		case *core.Instruction:
			uses = x.UseList()
		case *core.GlobalVariable:
			uses = x.UseList()
		default:
			return true
		}
		for _, u := range uses {
			in := u.User
			switch in.Op() {
			case core.OpLoad:
				// reading through the pointer is fine
			case core.OpStore:
				if u.Index == 0 {
					return true // the pointer itself is stored
				}
			case core.OpGetElementPtr:
				if visit(in) {
					return true
				}
			case core.OpSetEQ, core.OpSetNE, core.OpSetLT, core.OpSetGT,
				core.OpSetLE, core.OpSetGE:
				// comparisons don't leak the pointee
			default:
				return true // call, cast, ret, phi, ... conservatively escapes
			}
		}
		return false
	}
	return visit(v)
}
