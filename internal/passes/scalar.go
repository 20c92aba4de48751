package passes

import (
	"encoding/binary"
	"math"

	"llva/internal/analysis"
	"llva/internal/core"
)

// ConstProp performs sparse conditional-style constant propagation:
// instructions whose operands are all constants are folded, iterating
// until no more folds fire. (Branch folding on the resulting constants is
// done by SimplifyCFG.)
func ConstProp(m *core.Module, s *Stats) bool {
	return forEachDefined(m, func(f *core.Function) bool {
		changed := false
		for {
			c := false
			for _, bb := range f.Blocks {
				for _, in := range append([]*core.Instruction(nil), bb.Instructions()...) {
					if folded := tryFold(m, in); folded != nil {
						core.ReplaceAllUsesWith(in, folded)
						in.EraseFromParent()
						s.Add("constprop.folded", 1)
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

// tryFold returns the constant an instruction evaluates to, or nil.
func tryFold(m *core.Module, in *core.Instruction) *core.Constant {
	op := in.Op()
	constOp := func(i int) *core.Constant {
		c, _ := in.Operand(i).(*core.Constant)
		return c
	}
	switch {
	case op == core.OpShl || op == core.OpShr:
		x, amt := constOp(0), constOp(1)
		if x == nil || amt == nil {
			return nil
		}
		return core.FoldShift(op, x, amt)
	case op.IsBinary():
		x, y := constOp(0), constOp(1)
		if x == nil || y == nil {
			return nil
		}
		return core.FoldBinary(m.Types(), op, x, y)
	case op == core.OpCast:
		x := constOp(0)
		if x == nil {
			return nil
		}
		return core.FoldCast(x, in.Type())
	case op == core.OpPhi:
		// A phi whose incoming values are all the same constant folds.
		if in.NumOperands() == 0 {
			return nil
		}
		first := constOp(0)
		if first == nil {
			return nil
		}
		for i := 1; i < in.NumOperands(); i++ {
			c := constOp(i)
			if c == nil || !core.ConstantEqual(first, c) {
				return nil
			}
		}
		return first
	}
	return nil
}

// DCE removes trivially dead instructions (unused, pure) until fixpoint,
// including dead phi cycles (phis only used by other dead phis).
func DCE(m *core.Module, s *Stats) bool {
	return forEachDefined(m, func(f *core.Function) bool {
		changed := false
		for {
			c := false
			for _, bb := range f.Blocks {
				for _, in := range append([]*core.Instruction(nil), bb.Instructions()...) {
					if eraseDeadInstr(in) {
						s.Add("dce.removed", 1)
						c = true
					}
				}
			}
			if removeDeadPhiCycles(f, s) {
				c = true
			}
			if !c {
				break
			}
			changed = true
		}
		return changed
	})
}

// removeDeadPhiCycles deletes phis whose only (transitive) users are phis
// in the same dead set.
func removeDeadPhiCycles(f *core.Function, s *Stats) bool {
	// live = any phi used by a non-phi user, propagated backwards.
	var phis []*core.Instruction
	for _, bb := range f.Blocks {
		phis = append(phis, bb.Phis()...)
	}
	if len(phis) == 0 {
		return false
	}
	live := make(map[*core.Instruction]bool)
	var mark func(*core.Instruction)
	mark = func(p *core.Instruction) {
		if live[p] {
			return
		}
		live[p] = true
		for _, op := range p.Operands() {
			if q, ok := op.(*core.Instruction); ok && q.Op() == core.OpPhi {
				mark(q)
			}
		}
	}
	for _, p := range phis {
		for _, u := range p.Uses() {
			if u.User.Op() != core.OpPhi {
				mark(p)
				break
			}
		}
	}
	changed := false
	for _, p := range phis {
		if live[p] {
			continue
		}
		// Break the cycle: drop operands first, then erase.
		core.ReplaceAllUsesWith(p, core.NewUndef(p.Type()))
		p.EraseFromParent()
		s.Add("dce.deadphis", 1)
		changed = true
	}
	return changed
}

// ADCE is aggressive DCE: it assumes instructions dead until proven live
// (roots are stores, calls, terminators and other side-effecting
// operations) and deletes everything unmarked.
func ADCE(m *core.Module, s *Stats) bool {
	return forEachDefined(m, func(f *core.Function) bool {
		live := make(map[*core.Instruction]bool)
		var work []*core.Instruction
		for _, bb := range f.Blocks {
			for _, in := range bb.Instructions() {
				if !isPure(in) {
					live[in] = true
					work = append(work, in)
				}
			}
		}
		for len(work) > 0 {
			in := work[len(work)-1]
			work = work[:len(work)-1]
			for _, op := range in.Operands() {
				if d, ok := op.(*core.Instruction); ok && !live[d] {
					live[d] = true
					work = append(work, d)
				}
			}
		}
		changed := false
		for _, bb := range f.Blocks {
			for _, in := range append([]*core.Instruction(nil), bb.Instructions()...) {
				if live[in] {
					continue
				}
				if in.NumUses() > 0 {
					core.ReplaceAllUsesWith(in, core.NewUndef(in.Type()))
				}
				in.EraseFromParent()
				s.Add("adce.removed", 1)
				changed = true
			}
		}
		return changed
	})
}

// CSE performs dominator-scoped common subexpression elimination over
// pure instructions (global value numbering lite): two instructions with
// the same opcode, type and operands compute the same value; the
// dominating one replaces the other. Operand numbering lives and dies
// with one function's walk, so concurrent CSE of different modules
// shares nothing and no value outlives its compile.
func CSE(m *core.Module, s *Stats) bool {
	return forEachDefined(m, func(f *core.Function) bool {
		cfg := analysis.NewCFG(f)
		dt := analysis.NewDomTreeCFG(cfg)
		changed := false

		operands := make(map[operandKey]uint32)
		type scope map[cseKey]*core.Instruction
		var walk func(b int, table []scope)
		walk = func(b int, table []scope) {
			local := make(scope)
			table = append(table, local)
			bb := cfg.Blocks[b]
			for _, in := range append([]*core.Instruction(nil), bb.Instructions()...) {
				if !cseable(in) {
					continue
				}
				key := makeCSEKey(in, operands)
				var found *core.Instruction
				for i := len(table) - 1; i >= 0 && found == nil; i-- {
					found = table[i][key]
				}
				if found != nil {
					core.ReplaceAllUsesWith(in, found)
					in.EraseFromParent()
					s.Add("cse.removed", 1)
					changed = true
					continue
				}
				local[key] = in
			}
			for _, ch := range dt.Children[b] {
				walk(ch, table)
			}
		}
		walk(0, nil)
		return changed
	})
}

func cseable(in *core.Instruction) bool {
	switch in.Op() {
	case core.OpPhi, core.OpLoad:
		return false
	}
	return isPure(in) && in.HasResult()
}

// cseKey identifies the value an instruction computes: opcode, result
// type (types are interned per module, so the pointer is the identity)
// and the value numbers of its operands. Numbers start at 1, so a zero
// entry means "no such operand"; the rare instruction with more than
// three operands (a long getelementptr) packs the remainder into rest.
type cseKey struct {
	op   core.Opcode
	ty   *core.Type
	ops  [3]uint32
	rest string
}

// operandKey identifies one operand. Non-constant values are keyed by
// identity. Constants are not interned, so they are keyed by content:
// type and kind, plus the bit pattern of a scalar, the referenced global
// of an address constant, or the rendered text of an aggregate.
type operandKey struct {
	v    core.Value
	ty   *core.Type
	ck   core.ConstKind
	bits uint64
	text string
}

func makeOperandKey(v core.Value) operandKey {
	c, ok := v.(*core.Constant)
	if !ok {
		return operandKey{v: v}
	}
	k := operandKey{ty: c.Type(), ck: c.CK}
	switch c.CK {
	case core.ConstInt:
		k.bits = uint64(c.Int64())
	case core.ConstBool:
		if c.I != 0 {
			k.bits = 1
		}
	case core.ConstFloat:
		k.bits = math.Float64bits(c.F)
		if c.F != c.F { // every NaN renders, and so numbers, alike
			k.bits = math.Float64bits(math.NaN())
		}
	case core.ConstGlobal:
		k.v = c.Ref
	case core.ConstNull, core.ConstUndef, core.ConstZero:
	default:
		k.text = c.Ident()
	}
	return k
}

func makeCSEKey(in *core.Instruction, operands map[operandKey]uint32) cseKey {
	key := cseKey{op: in.Op(), ty: in.Type()}
	var rest []byte
	for i, op := range in.Operands() {
		ok := makeOperandKey(op)
		id, seen := operands[ok]
		if !seen {
			id = uint32(len(operands) + 1)
			operands[ok] = id
		}
		if i < len(key.ops) {
			key.ops[i] = id
		} else {
			rest = binary.LittleEndian.AppendUint32(rest, id)
		}
	}
	key.rest = string(rest)
	return key
}

// LoadElim forwards stored values to subsequent loads within a basic
// block when the alias analysis proves the addresses equal and no
// intervening instruction may write the location — redundant-load
// elimination enabled by the typed representation.
func LoadElim(m *core.Module, s *Stats) bool {
	return forEachDefined(m, func(f *core.Function) bool {
		changed := false
		for _, bb := range f.Blocks {
			// available: address value -> last value stored/loaded
			avail := make(map[core.Value]core.Value)
			for _, in := range append([]*core.Instruction(nil), bb.Instructions()...) {
				switch in.Op() {
				case core.OpStore:
					// invalidate may-aliasing entries
					for addr := range avail {
						if analysis.Alias(addr, in.Operand(1)) != analysis.NoAlias {
							delete(avail, addr)
						}
					}
					avail[in.Operand(1)] = in.Operand(0)
				case core.OpLoad:
					addr := in.Operand(0)
					if v, ok := avail[addr]; ok && v.Type() == in.Type() {
						core.ReplaceAllUsesWith(in, v)
						in.EraseFromParent()
						s.Add("loadelim.forwarded", 1)
						changed = true
						continue
					}
					avail[addr] = in
				case core.OpCall, core.OpInvoke:
					// calls may write anything except provably local,
					// non-escaping allocas
					for addr := range avail {
						base, isLocal := analysis.Base(addr)
						if !isLocal || analysis.Escapes(base) {
							delete(avail, addr)
						}
					}
				}
			}
		}
		return changed
	})
}
