package passes

import (
	"slices"

	"llva/internal/core"
)

// InlineThreshold is the maximum callee size (in instructions) eligible
// for inlining.
const InlineThreshold = 40

// Inline performs bottom-up function inlining of small, non-recursive
// callees at direct call sites — the interprocedural optimization most
// dependent on the accurate call graph the LLVA representation provides
// (paper, Section 5.1).
func Inline(m *core.Module, s *Stats) bool {
	changed := false
	for _, f := range m.Functions {
		if f.IsDeclaration() {
			continue
		}
		// Collect call sites first; inlining mutates the block list.
		var sites []*core.Instruction
		for _, bb := range f.Blocks {
			for _, in := range bb.Instructions() {
				if in.Op() != core.OpCall {
					continue
				}
				callee := in.CalledFunction()
				if callee == nil || callee == f || callee.IsDeclaration() ||
					callee.IsIntrinsic() {
					continue
				}
				if callee.NumInstructions() > InlineThreshold {
					continue
				}
				if hasExceptionalFlow(callee) || callsItself(callee) {
					continue
				}
				sites = append(sites, in)
			}
		}
		for _, call := range sites {
			if call.Parent() == nil {
				continue // removed by an earlier inline in this loop
			}
			inlineCall(f, call, s)
			changed = true
		}
	}
	return changed
}

// CanInline reports whether callee's body is structurally eligible for
// inlining (no exceptional flow, not directly recursive). Size policy is
// the caller's: Inline applies InlineThreshold, the tier-2 translator
// uses a larger profile-driven budget.
func CanInline(callee *core.Function) bool {
	return !hasExceptionalFlow(callee) && !callsItself(callee)
}

// InlineCall inlines one eligible direct call site into caller. The
// callee must satisfy CanInline. New blocks are appended to
// caller.Blocks: first the split continuation, then the cloned callee
// body, so callers can attribute them (e.g. carry over profile heat).
func InlineCall(caller *core.Function, call *core.Instruction) {
	inlineCall(caller, call, NewStats())
}

func hasExceptionalFlow(f *core.Function) bool {
	for _, bb := range f.Blocks {
		for _, in := range bb.Instructions() {
			if in.Op() == core.OpUnwind || in.Op() == core.OpInvoke {
				return true
			}
		}
	}
	return false
}

func callsItself(f *core.Function) bool {
	for _, bb := range f.Blocks {
		for _, in := range bb.Instructions() {
			if (in.Op() == core.OpCall || in.Op() == core.OpInvoke) && in.CalledFunction() == f {
				return true
			}
		}
	}
	return false
}

func inlineCall(caller *core.Function, call *core.Instruction, s *Stats) {
	callee := call.CalledFunction()
	bb := call.Parent()

	// 1. Split bb at the call: instructions after the call move to cont.
	cont := caller.NewBlock(bb.Name() + ".cont")
	callIdx := slices.Index(bb.Instructions(), call)
	for bb.Len() > callIdx+1 {
		bb.Instructions()[callIdx+1].MoveTo(cont)
	}
	// Successor phis referring to bb now refer to cont (the terminator
	// moved there).
	for _, sc := range cont.Successors() {
		for _, phi := range sc.Phis() {
			for i := 0; i < phi.NumBlocks(); i++ {
				if phi.Block(i) == bb {
					phi.SetBlock(i, cont)
				}
			}
		}
	}

	// 2. Clone the callee body: create the copies, then wire their
	// operands. A callee block's or instruction's copy is found by its
	// number, a parameter's argument by its index.
	blockCopy := make([]*core.BasicBlock, callee.BlockSlots())
	for _, cb := range callee.Blocks {
		blockCopy[cb.Num()] = caller.NewBlock(callee.Name() + "." + cb.Name())
	}
	copyOf := make([]*core.Instruction, callee.InstrSlots())
	for _, cb := range callee.Blocks {
		for _, in := range cb.Instructions() {
			cl := core.NewInstruction(in.Op(), in.Type())
			cl.ExceptionsEnabled = in.ExceptionsEnabled
			cl.Allocated = in.Allocated
			cl.Cases = append([]int64(nil), in.Cases...)
			cl.SetName(in.Name())
			blockCopy[cb.Num()].Append(cl)
			copyOf[in.Num()] = cl
		}
	}
	mapv := func(v core.Value) core.Value {
		switch x := v.(type) {
		case *core.Argument:
			if x.Parent() == callee {
				return call.CallArgs()[x.Index()]
			}
		case *core.Instruction:
			if p := x.Parent(); p != nil && p.Parent() == callee {
				return copyOf[x.Num()]
			}
		}
		return v
	}
	var rets []*core.Instruction
	for _, cb := range callee.Blocks {
		for _, orig := range cb.Instructions() {
			cl := copyOf[orig.Num()]
			for _, op := range orig.Operands() {
				cl.AddOperand(mapv(op))
			}
			for _, ob := range orig.Blocks() {
				cl.AddBlock(blockCopy[ob.Num()])
			}
			if cl.Op() == core.OpRet {
				rets = append(rets, cl)
			}
		}
	}

	// 3. bb branches to the cloned entry.
	br := core.NewInstruction(core.OpBr, caller.Parent().Types().Void())
	br.AddBlock(blockCopy[callee.Entry().Num()])
	bb.Append(br)

	// 4. Rets become branches to cont; return values merge via phi.
	var retVals []core.Value
	var retBlocks []*core.BasicBlock
	for _, r := range rets {
		if r.NumOperands() == 1 {
			retVals = append(retVals, r.Operand(0))
			retBlocks = append(retBlocks, r.Parent())
		} else {
			retBlocks = append(retBlocks, r.Parent())
		}
		rbb := r.Parent()
		r.EraseFromParent()
		nbr := core.NewInstruction(core.OpBr, caller.Parent().Types().Void())
		nbr.AddBlock(cont)
		rbb.Append(nbr)
	}

	// 5. Replace the call result.
	if call.HasResult() && call.NumUses() > 0 {
		var repl core.Value
		if len(retVals) == 1 {
			repl = retVals[0]
		} else if len(retVals) > 1 {
			phi := core.NewInstruction(core.OpPhi, call.Type())
			phi.SetName(callee.Name() + ".ret")
			for i, v := range retVals {
				phi.AddPhiIncoming(v, retBlocks[i])
			}
			cont.InsertAt(0, phi)
			repl = phi
		} else {
			repl = core.NewUndef(call.Type())
		}
		core.ReplaceAllUsesWith(call, repl)
	}
	call.EraseFromParent()
	s.Add("inline.sites", 1)
}

// DeadGlobals removes internal functions and globals with no remaining
// uses (dead global elimination, run after inlining).
func DeadGlobals(m *core.Module, s *Stats) bool {
	changed := false
	for {
		c := false
		for _, f := range append([]*core.Function(nil), m.Functions...) {
			if f.Internal && f.NumUses() == 0 && f.Name() != "main" && !f.IsDeclaration() {
				m.RemoveFunction(f)
				s.Add("deadglobals.functions", 1)
				c = true
			}
		}
		for _, g := range append([]*core.GlobalVariable(nil), m.Globals...) {
			if g.NumUses() == 0 && !referencedByInits(m, g) {
				m.RemoveGlobal(g)
				s.Add("deadglobals.globals", 1)
				c = true
			}
		}
		if !c {
			break
		}
		changed = true
	}
	return changed
}

func referencedByInits(m *core.Module, g *core.GlobalVariable) bool {
	var scan func(c *core.Constant) bool
	scan = func(c *core.Constant) bool {
		if c == nil {
			return false
		}
		if c.CK == core.ConstGlobal && c.Ref == core.Value(g) {
			return true
		}
		for _, e := range c.Elems {
			if scan(e) {
				return true
			}
		}
		return false
	}
	for _, other := range m.Globals {
		if other != g && scan(other.Init) {
			return true
		}
	}
	return false
}
