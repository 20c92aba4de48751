package passes

import (
	"llva/internal/analysis"
	"llva/internal/core"
)

// LICM hoists loop-invariant pure instructions into a preheader block —
// a classical optimization that needs exactly the information LLVA makes
// explicit: the CFG (loop structure), SSA (invariance is "all operands
// defined outside the loop"), and the exception model (an instruction
// with ExceptionsEnabled=false may be hoisted even if it could trap).
func LICM(m *core.Module, s *Stats) bool {
	var buf []*core.Instruction
	return forEachDefined(m, func(f *core.Function) bool {
		cfg := analysis.NewCFG(f)
		dt := analysis.NewDomTreeCFG(cfg)
		li := analysis.NewLoopInfo(dt)
		changed := false
		// Process outer loops after inner ones so code hoists as far as
		// it can in multiple rounds.
		for _, l := range li.Loops {
			if hoistLoop(cfg, l, &buf, s) {
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

func hoistLoop(cfg *analysis.CFG, l *analysis.Loop, buf *[]*core.Instruction, s *Stats) bool {
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

	changed := false
	// Iterate: hoisting one instruction can make another invariant.
	for {
		hoisted := false
		for _, bi := range l.Blocks {
			*buf = append((*buf)[:0], cfg.Blocks[bi].Instructions()...)
			for _, in := range *buf {
				if !isPure(in) || !in.HasResult() || in.Op() == core.OpPhi {
					continue
				}
				invariant := true
				for _, op := range in.Operands() {
					if inLoop(op) {
						invariant = false
						break
					}
				}
				if !invariant {
					continue
				}
				// Move before the preheader's terminator.
				term := pre.Terminator()
				in.MoveTo(pre)
				// MoveTo appends after the terminator; reorder.
				reorderBeforeTerminator(pre, in, term)
				s.Add("licm.hoisted", 1)
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
