package passes

import (
	"llva/internal/analysis"
	"llva/internal/core"
)

// LICM is the optimizer's memory and loop pass, over one CFG, dominator
// tree and loop nest per function — the information LLVA makes explicit:
// the CFG (loop structure), SSA (invariance is "all operands defined
// outside the loop"), the types (alias analysis) and the exception model
// (an instruction with ExceptionsEnabled=false may be hoisted even if it
// could trap). It first forwards loads along the dominator tree (forward),
// then hoists loop-invariant instructions into each loop's preheader:
// pure ones out of every loop, loads out of innermost loops only, when
// nothing in the loop may write their address. A loaded value moves at
// most one loop level, out of the loop that loads it, and is forwarded
// within one only: that keeps register pressure where it was (DESIGN.md
// §5).
func LICM(m *core.Module, s *Stats) bool {
	w := memWalk{s: s}
	return forEachDefined(m, func(f *core.Function) bool {
		w.cfg = analysis.NewCFG(f)
		w.dt = analysis.NewDomTreeCFG(w.cfg)
		w.li = analysis.NewLoopInfo(w.dt)
		changed := w.forward()
		// Process outer loops after inner ones so code hoists as far as
		// it can in multiple rounds.
		for _, l := range w.li.Loops {
			if w.hoistLoop(l) {
				changed = true
			}
		}
		return changed
	})
}

// preheader finds the unique block that branches to the loop header from
// outside the loop, or returns nil. The CFG holds one edge per branch, so
// a predecessor's edges are adjacent in its list.
func preheader(cfg *analysis.CFG, l *analysis.Loop) *core.BasicBlock {
	preds := cfg.Preds[l.Header]
	outside := -1
	for k, p := range preds {
		if k > 0 && p == preds[k-1] || l.Contains(p) {
			continue
		}
		if outside >= 0 {
			// Creating a fresh preheader and rewiring multiple entry
			// edges is possible but rarely needed for front-end-generated
			// loops (the for/while lowerings produce a unique entry edge).
			return nil
		}
		outside = p
	}
	if outside < 0 {
		return nil
	}
	pred := cfg.Blocks[outside]
	t := pred.Terminator()
	if t == nil || t.Op() != core.OpBr {
		return nil
	}
	return pred
}

func (w *memWalk) hoistLoop(l *analysis.Loop) bool {
	cfg := w.cfg
	pre := preheader(cfg, l)
	if pre == nil {
		return false
	}
	inLoop := func(v core.Value) bool {
		in, ok := v.(*core.Instruction)
		if !ok {
			return false
		}
		if in.Parent() == nil {
			return false
		}
		bi := cfg.Index(in.Parent())
		return bi >= 0 && l.Contains(bi)
	}
	// What the loop may write, if loads may leave it at all. Hoisting
	// moves no store or call, so this holds for every round below.
	innermost := w.innermost(l)
	calls := false
	w.stores = w.stores[:0]
	if innermost {
		for _, bi := range l.Blocks {
			for _, in := range cfg.Blocks[bi].Instructions() {
				switch in.Op() {
				case core.OpStore:
					w.stores = append(w.stores, in.Operand(1))
				case core.OpCall, core.OpInvoke:
					calls = true
				}
			}
		}
	}

	changed := false
	// Iterate: hoisting one instruction can make another invariant.
	for {
		hoisted := false
		for _, bi := range l.Blocks {
			w.buf = append(w.buf[:0], cfg.Blocks[bi].Instructions()...)
			for _, in := range w.buf {
				load := in.Op() == core.OpLoad
				if load && !innermost ||
					!load && (!isPure(in) || !in.HasResult() || in.Op() == core.OpPhi) {
					continue
				}
				invariant := true
				for _, op := range in.Operands() {
					if inLoop(op) {
						invariant = false
						break
					}
				}
				if !invariant || load && !w.loadHoistable(in, l, pre, calls) {
					continue
				}
				// Move before the preheader's terminator.
				term := pre.Terminator()
				in.MoveTo(pre)
				// MoveTo appends after the terminator; reorder.
				reorderBeforeTerminator(pre, in, term)
				w.s.Add("licm.hoisted", 1)
				hoisted = true
				changed = true
			}
		}
		if !hoisted {
			break
		}
	}
	return changed
}

// innermost reports whether no loop nests in l.
func (w *memWalk) innermost(l *analysis.Loop) bool {
	for _, x := range w.li.Loops {
		if x.Parent == l {
			return false
		}
	}
	return true
}

// loadHoistable reports whether a load of l may run once in pre instead
// of on every trip: no store (w.stores) or call in the loop may write its
// address. A load that may trap must trap exactly when it did: it is in
// the header with nothing before it that may trap or write, and pre
// always enters the header.
func (w *memWalk) loadHoistable(in *core.Instruction, l *analysis.Loop, pre *core.BasicBlock, calls bool) bool {
	addr := in.Operand(0)
	for _, p := range w.stores {
		if analysis.Alias(p, addr) != analysis.NoAlias {
			return false
		}
	}
	if calls && mayCallWrite(addr) {
		return false
	}
	if !in.ExceptionsEnabled {
		return true
	}
	if pre.Terminator().NumBlocks() != 1 {
		return false
	}
	for _, x := range w.cfg.Blocks[l.Header].Instructions() {
		if x == in {
			return true
		}
		if x.Op() != core.OpPhi && !isPure(x) {
			return false
		}
	}
	return false
}

// reorderBeforeTerminator fixes the instruction order after MoveTo placed
// in after the block terminator.
func reorderBeforeTerminator(bb *core.BasicBlock, in, term *core.Instruction) {
	instrs := bb.Instructions()
	// in is last; term should be last.
	if len(instrs) < 2 || instrs[len(instrs)-1] != in {
		return
	}
	for i, x := range instrs {
		if x == term {
			copy(instrs[i+1:], instrs[i:len(instrs)-1])
			instrs[i] = in
			return
		}
	}
}
