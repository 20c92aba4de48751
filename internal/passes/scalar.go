package passes

import (
	"encoding/binary"

	"llva/internal/analysis"
	"llva/internal/core"
)

// ConstProp performs sparse conditional-style constant propagation:
// instructions whose operands are all constants are folded, iterating
// until no more folds fire. (Branch folding on the resulting constants is
// done by SimplifyCFG.)
func ConstProp(m *core.Module, s *Stats) bool {
	var buf []*core.Instruction
	return forEachDefined(m, func(f *core.Function) bool {
		changed := false
		for {
			c := false
			for _, bb := range f.Blocks {
				buf = append(buf[:0], bb.Instructions()...)
				for _, in := range buf {
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
	var buf []*core.Instruction
	return forEachDefined(m, func(f *core.Function) bool {
		changed := false
		for {
			c := false
			for _, bb := range f.Blocks {
				buf = append(buf[:0], bb.Instructions()...)
				for _, in := range buf {
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
	live := make([]bool, f.InstrSlots())
	var mark func(*core.Instruction)
	mark = func(p *core.Instruction) {
		if live[p.Num()] {
			return
		}
		live[p.Num()] = true
		for _, op := range p.Operands() {
			if q, ok := op.(*core.Instruction); ok && q.Op() == core.OpPhi {
				mark(q)
			}
		}
	}
	for _, p := range phis {
		for _, u := range p.UseList() {
			if u.User.Op() != core.OpPhi {
				mark(p)
				break
			}
		}
	}
	changed := false
	for _, p := range phis {
		if live[p.Num()] {
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
	var buf []*core.Instruction
	return forEachDefined(m, func(f *core.Function) bool {
		live := make([]bool, f.InstrSlots())
		var work []*core.Instruction
		for _, bb := range f.Blocks {
			for _, in := range bb.Instructions() {
				if !isPure(in) {
					live[in.Num()] = true
					work = append(work, in)
				}
			}
		}
		for len(work) > 0 {
			in := work[len(work)-1]
			work = work[:len(work)-1]
			for _, op := range in.Operands() {
				if d, ok := op.(*core.Instruction); ok && !live[d.Num()] {
					live[d.Num()] = true
					work = append(work, d)
				}
			}
		}
		changed := false
		for _, bb := range f.Blocks {
			buf = append(buf[:0], bb.Instructions()...)
			for _, in := range buf {
				if live[in.Num()] {
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
	var buf []*core.Instruction
	return forEachDefined(m, func(f *core.Function) bool {
		cfg := analysis.NewCFG(f)
		dt := analysis.NewDomTreeCFG(cfg)
		changed := false

		// The table holds the instructions of the blocks on the walk's
		// path from the entry, which dominate the block walked. A key is
		// added only when no entry has it, so leaving a block deletes
		// exactly the keys it added: scope holds them, block by block.
		nums := operandNumbers{instrs: uint32(f.InstrSlots()), params: uint32(len(f.Params))}
		table := make(map[cseKey]*core.Instruction)
		var scope []cseKey
		var walk func(b int)
		walk = func(b int) {
			mark := len(scope)
			buf = append(buf[:0], cfg.Blocks[b].Instructions()...)
			for _, in := range buf {
				if !cseable(in) {
					continue
				}
				key := makeCSEKey(in, &nums)
				if found := table[key]; found != nil {
					core.ReplaceAllUsesWith(in, found)
					in.EraseFromParent()
					s.Add("cse.removed", 1)
					changed = true
					continue
				}
				table[key] = in
				scope = append(scope, key)
			}
			for _, ch := range dt.Children[b] {
				walk(ch)
			}
			for _, key := range scope[mark:] {
				delete(table, key)
			}
			scope = scope[:mark]
		}
		walk(0)
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

// operandNumbers numbers one function's operands for cseKey: an
// instruction by its Num, a parameter by its index past those, and a
// constant, global or function in order of first sight past both.
// Constants are not interned, so they are numbered by content.
type operandNumbers struct {
	instrs, params uint32
	others         map[operandKey]uint32
}

// operandKey identifies a constant by content, or a global or function
// by identity.
type operandKey struct {
	v core.Value
	c core.ConstKey
}

func (n *operandNumbers) of(v core.Value) uint32 {
	switch x := v.(type) {
	case *core.Instruction:
		return 1 + uint32(x.Num())
	case *core.Argument:
		return 1 + n.instrs + uint32(x.Index())
	}
	var k operandKey
	if c, ok := v.(*core.Constant); ok {
		k.c = c.Key()
	} else {
		k.v = v
	}
	id, seen := n.others[k]
	if !seen {
		if n.others == nil {
			n.others = make(map[operandKey]uint32)
		}
		id = 1 + n.instrs + n.params + uint32(len(n.others))
		n.others[k] = id
	}
	return id
}

func makeCSEKey(in *core.Instruction, nums *operandNumbers) cseKey {
	key := cseKey{op: in.Op(), ty: in.Type()}
	var rest []byte
	for i, op := range in.Operands() {
		id := nums.of(op)
		if i < len(key.ops) {
			key.ops[i] = id
		} else {
			rest = binary.LittleEndian.AppendUint32(rest, id)
		}
	}
	key.rest = string(rest)
	return key
}
