package passes

import (
	"slices"

	"llva/internal/core"
)

// SimplifyCFG folds constant branches, removes unreachable blocks,
// merges blocks with a single unconditional predecessor, and threads
// branches over boolean phis (threadBoolPhis), the shape the front end
// gives && and ||.
func SimplifyCFG(m *core.Module, s *Stats) bool {
	return forEachDefined(m, func(f *core.Function) bool {
		changed := simplifyBlocks(f, s)
		if threadBoolPhis(f, s) {
			simplifyBlocks(f, s)
			changed = true
		}
		return changed
	})
}

// simplifyBlocks folds, prunes and merges f's blocks to a fixpoint.
func simplifyBlocks(f *core.Function, s *Stats) bool {
	changed := false
	for {
		c := false
		c = foldBranches(f, s) || c
		c = removeUnreachable(f, s) || c
		c = mergeBlocks(f, s) || c
		if !c {
			return changed
		}
		changed = true
	}
}

// threadBoolPhis threads each edge into a block that holds only
// %p = phi bool and br bool %p, T, F (T != F, %p used by nothing else)
// past it. An incoming constant retargets the edge to T or F; a value
// its predecessor defines, in a predecessor that ends in an unconditional
// br, becomes that predecessor's own branch, br bool %v, T, F. Either
// way the phis of the edge's new targets gain an entry for the
// predecessor, carrying what they carry for the block, and the block,
// once no edge enters it, is left to removeUnreachable. An evaluation of
// a && b then retires one conditional branch per operand instead of
// materializing the bool and testing it again.
//
// An edge is skipped when its predecessor already branches to the target
// (the target's phis would need two entries for it) and the block is
// skipped when it heads a loop: threading its back edge would give the
// loop a second entry. Threading adds and removes no blocks, and in a
// reducible CFG (all the front end emits) makes no block a loop header,
// so the headers are found once, and only for a function that has a
// candidate.
func threadBoolPhis(f *core.Function, s *Stats) bool {
	var marks map[*core.BasicBlock]uint8
	changed := false
	for _, bb := range f.Blocks {
		phi, t, e := boolPhiBranch(bb)
		if phi == nil {
			continue
		}
		if marks == nil {
			marks = loopHeaders(f)
		}
		if marks[bb]&markHeader != 0 {
			continue
		}
		for i := 0; i < phi.NumBlocks(); {
			v, pred := phi.PhiIncoming(i)
			if !threadEdge(bb, pred, v, t, e) {
				i++
				continue
			}
			phi.RemovePhiIncoming(i)
			s.Add("simplifycfg.threaded", 1)
			changed = true
		}
	}
	return changed
}

// boolPhiBranch returns the phi and the two targets of a block that
// threadBoolPhis may thread, or a nil phi.
func boolPhiBranch(bb *core.BasicBlock) (phi *core.Instruction, t, e *core.BasicBlock) {
	ins := bb.Instructions()
	if len(ins) != 2 {
		return nil, nil, nil
	}
	phi, br := ins[0], ins[1]
	if phi.Op() != core.OpPhi || phi.Type().Kind() != core.BoolKind || phi.NumUses() != 1 ||
		br.Op() != core.OpBr || br.NumBlocks() != 2 || br.Operand(0) != phi ||
		br.Block(0) == br.Block(1) {
		return nil, nil, nil
	}
	return phi, br.Block(0), br.Block(1)
}

// threadEdge threads pred's edge into bb, whose phi brings v along it,
// to bb's targets t and e, and reports whether it did.
func threadEdge(bb, pred *core.BasicBlock, v core.Value, t, e *core.BasicBlock) bool {
	pt := pred.Terminator()
	if pt == nil || pt.Op() != core.OpBr {
		return false
	}
	if c, ok := v.(*core.Constant); ok {
		if c.CK != core.ConstBool {
			return false
		}
		to := e
		if c.I&1 != 0 {
			to = t
		}
		if slices.Contains(pt.Blocks(), to) {
			return false
		}
		for i, sc := range pt.Blocks() {
			if sc == bb {
				pt.SetBlock(i, to)
			}
		}
		addPhiEdge(to, bb, pred)
		return true
	}
	if in, ok := v.(*core.Instruction); !ok || in.Parent() != pred || pt.NumBlocks() != 1 {
		return false
	}
	pt.EraseFromParent()
	br := core.NewInstruction(core.OpBr, pred.Parent().Parent().Types().Void(), v)
	br.AddBlock(t)
	br.AddBlock(e)
	pred.Append(br)
	addPhiEdge(t, bb, pred)
	addPhiEdge(e, bb, pred)
	return true
}

// addPhiEdge gives every phi in to an entry for pred carrying what it
// carries for bb.
func addPhiEdge(to, bb, pred *core.BasicBlock) {
	for _, in := range to.Instructions() {
		if in.Op() != core.OpPhi {
			return
		}
		in.AddPhiIncoming(in.PhiIncomingFor(bb), pred)
	}
}

// The marks loopHeaders leaves on a block.
const (
	markOnStack uint8 = 1 << iota // on the walk's stack
	markWalked                    // left the stack
	markHeader                    // a retreating edge enters it
)

// loopHeaders walks f depth-first from its entry and marks the blocks a
// retreating edge enters: in a reducible CFG, its loop headers.
func loopHeaders(f *core.Function) map[*core.BasicBlock]uint8 {
	type frame struct {
		bb   *core.BasicBlock
		next int // successors not yet taken: Successors()[next:]
	}
	marks := make(map[*core.BasicBlock]uint8, len(f.Blocks))
	stack := make([]frame, 1, len(f.Blocks))
	stack[0] = frame{bb: f.Entry()}
	marks[f.Entry()] = markOnStack
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succs := top.bb.Successors()
		if top.next == len(succs) {
			marks[top.bb] = marks[top.bb]&^markOnStack | markWalked
			stack = stack[:len(stack)-1]
			continue
		}
		sc := succs[top.next]
		top.next++
		switch m := marks[sc]; {
		case m&markOnStack != 0:
			marks[sc] = m | markHeader
		case m == 0:
			marks[sc] = markOnStack
			stack = append(stack, frame{bb: sc})
		}
	}
	return marks
}

// removePhiEdge drops bb's incoming entries for pred on every phi in bb.
func removePhiEdge(bb, pred *core.BasicBlock) {
	for _, phi := range bb.Instructions() {
		if phi.Op() != core.OpPhi {
			return
		}
		for i := 0; i < phi.NumBlocks(); {
			if phi.Block(i) == pred {
				phi.RemovePhiIncoming(i)
			} else {
				i++
			}
		}
	}
}

// foldBranches rewrites conditional branches on constants and mbr on
// constants into unconditional branches.
func foldBranches(f *core.Function, s *Stats) bool {
	changed := false
	for _, bb := range f.Blocks {
		t := bb.Terminator()
		if t == nil {
			continue
		}
		switch t.Op() {
		case core.OpBr:
			if t.NumBlocks() != 2 {
				// Also normalize br cond, X, X.
				continue
			}
			if t.Block(0) == t.Block(1) {
				target := t.Block(0)
				replaceTerminatorWithBr(bb, t, target)
				s.Add("simplifycfg.brsame", 1)
				changed = true
				continue
			}
			if x := t.Operand(0); isNot(x) {
				// br (xor c, true), T, F branches on c, to F, T.
				not := x.(*core.Instruction)
				t.SetOperand(0, not.Operand(0))
				t0, t1 := t.Block(0), t.Block(1)
				t.SetBlock(0, t1)
				t.SetBlock(1, t0)
				not.EraseFromParent()
				s.Add("simplifycfg.notbr", 1)
				changed = true
				continue
			}
			c, ok := t.Operand(0).(*core.Constant)
			if !ok {
				continue
			}
			var taken, dead *core.BasicBlock
			if c.I&1 != 0 {
				taken, dead = t.Block(0), t.Block(1)
			} else {
				taken, dead = t.Block(1), t.Block(0)
			}
			replaceTerminatorWithBr(bb, t, taken)
			removePhiEdge(dead, bb)
			s.Add("simplifycfg.constbr", 1)
			changed = true
		case core.OpMbr:
			c, ok := t.Operand(0).(*core.Constant)
			if !ok {
				continue
			}
			taken := t.Block(0)
			for i, cv := range t.Cases {
				if cv == c.Int64() {
					taken = t.Block(i + 1)
					break
				}
			}
			// Remove phi edges from every non-taken unique target.
			seen := map[*core.BasicBlock]bool{taken: true}
			for _, tgt := range t.Blocks() {
				if !seen[tgt] {
					seen[tgt] = true
					removePhiEdge(tgt, bb)
				}
			}
			replaceTerminatorWithBr(bb, t, taken)
			s.Add("simplifycfg.constmbr", 1)
			changed = true
		}
	}
	return changed
}

// isNot reports whether v is xor bool c, true, used by nothing but the
// branch that asks.
func isNot(v core.Value) bool {
	in, ok := v.(*core.Instruction)
	if !ok || in.Op() != core.OpXor || in.NumUses() != 1 || in.Type().Kind() != core.BoolKind {
		return false
	}
	c, ok := in.Operand(1).(*core.Constant)
	return ok && c.CK == core.ConstBool && c.I&1 != 0
}

func replaceTerminatorWithBr(bb *core.BasicBlock, t *core.Instruction, target *core.BasicBlock) {
	t.EraseFromParent()
	br := core.NewInstruction(core.OpBr, bb.Parent().Parent().Types().Void())
	br.AddBlock(target)
	bb.Append(br)
}

// removeUnreachable deletes blocks not reachable from the entry.
func removeUnreachable(f *core.Function, s *Stats) bool {
	reachable := make(map[*core.BasicBlock]bool)
	var stack []*core.BasicBlock
	stack = append(stack, f.Entry())
	reachable[f.Entry()] = true
	for len(stack) > 0 {
		bb := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, sc := range bb.Successors() {
			if !reachable[sc] {
				reachable[sc] = true
				stack = append(stack, sc)
			}
		}
	}
	var dead []*core.BasicBlock
	for _, bb := range f.Blocks {
		if !reachable[bb] {
			dead = append(dead, bb)
		}
	}
	if len(dead) == 0 {
		return false
	}
	// Unlink phi edges from dead predecessors, then clear instruction
	// uses inside dead blocks before removal.
	for _, bb := range dead {
		for _, sc := range bb.Successors() {
			if reachable[sc] {
				removePhiEdge(sc, bb)
			}
		}
	}
	for _, bb := range dead {
		for _, in := range bb.Instructions() {
			if in.NumUses() > 0 {
				core.ReplaceAllUsesWith(in, core.NewUndef(in.Type()))
			}
		}
	}
	for _, bb := range dead {
		f.RemoveBlock(bb)
		s.Add("simplifycfg.deadblocks", 1)
	}
	return true
}

// mergeBlocks merges a block into its unique unconditional predecessor
// and removes empty forwarding blocks.
func mergeBlocks(f *core.Function, s *Stats) bool {
	changed := false
	// Merging removes the block at i, which moves the next one there.
	for i := 1; i < len(f.Blocks); i++ {
		bb := f.Blocks[i]
		pred := onlyPred(f, bb)
		if pred == nil || pred == bb {
			continue
		}
		pt := pred.Terminator()
		if pt == nil || pt.Op() != core.OpBr || pt.NumBlocks() != 1 {
			continue
		}
		// Phis in bb with a single predecessor are trivial: replace.
		for bb.Len() > 0 && bb.Instructions()[0].Op() == core.OpPhi {
			phi := bb.Instructions()[0]
			core.ReplaceAllUsesWith(phi, phi.Operand(0))
			phi.EraseFromParent()
		}
		// Move instructions from bb into pred.
		pt.EraseFromParent()
		for bb.Len() > 0 {
			bb.Instructions()[0].MoveTo(pred)
		}
		// Successor phis must now name pred instead of bb.
		for _, sc := range pred.Successors() {
			for _, phi := range sc.Instructions() {
				if phi.Op() != core.OpPhi {
					break
				}
				for k := 0; k < phi.NumBlocks(); k++ {
					if phi.Block(k) == bb {
						phi.SetBlock(k, pred)
					}
				}
			}
		}
		if bb.NumUses() > 0 {
			// Should not happen: remaining label uses would be stale.
			continue
		}
		f.RemoveBlock(bb)
		s.Add("simplifycfg.merged", 1)
		changed = true
		i--
	}
	return changed
}

// onlyPred returns the one block that branches to bb, or nil if none or
// several do.
func onlyPred(f *core.Function, bb *core.BasicBlock) *core.BasicBlock {
	var pred *core.BasicBlock
	for _, other := range f.Blocks {
		for _, sc := range other.Successors() {
			if sc == bb {
				if pred != nil {
					return nil
				}
				pred = other
				break
			}
		}
	}
	return pred
}
