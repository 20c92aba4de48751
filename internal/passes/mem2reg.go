package passes

import (
	"llva/internal/analysis"
	"llva/internal/core"
)

// Mem2Reg promotes allocas whose address never escapes and that are only
// loaded and stored directly into SSA virtual registers, inserting phi
// instructions at dominance frontiers (Cytron et al.). Front-ends emit
// locals as allocas (paper, Figure 2); this pass recovers the SSA form
// the V-ISA is built around.
func Mem2Reg(m *core.Module, s *Stats) bool {
	return forEachDefined(m, func(f *core.Function) bool {
		return mem2regFunc(f, s)
	})
}

func promotable(in *core.Instruction) bool {
	if in.Op() != core.OpAlloca || in.NumOperands() != 0 {
		return false
	}
	if !in.Allocated.IsFirstClass() {
		return false
	}
	for _, u := range in.UseList() {
		switch u.User.Op() {
		case core.OpLoad:
			// ok
		case core.OpStore:
			if u.Index == 0 {
				return false // the address itself is stored
			}
		default:
			return false
		}
	}
	return true
}

func mem2regFunc(f *core.Function, s *Stats) bool {
	var allocas []*core.Instruction
	for _, bb := range f.Blocks {
		for _, in := range bb.Instructions() {
			if promotable(in) {
				allocas = append(allocas, in)
			}
		}
	}
	if len(allocas) == 0 {
		return false
	}

	cfg := analysis.NewCFG(f)
	dt := analysis.NewDomTreeCFG(cfg)
	df := dt.Frontiers()

	// id[n] is 1 + the index in allocas of the promoted alloca numbered
	// n, or of the one a phi numbered n was placed for; 0 for any other
	// instruction. The phis are numbered after the table is made, so it
	// grows with them.
	id := make([]int32, f.InstrSlots())
	for i, a := range allocas {
		id[a.Num()] = int32(i + 1)
	}
	allocaOf := func(v core.Value) (int, bool) {
		a, ok := v.(*core.Instruction)
		if !ok || a.Op() != core.OpAlloca || a.Num() >= len(id) || id[a.Num()] == 0 {
			return 0, false
		}
		return int(id[a.Num()]) - 1, true
	}

	// Phi placement at iterated dominance frontiers of each alloca's
	// defining (storing) blocks. inWork and hasPhi hold 1 + the index of
	// the alloca a block was last queued or given a phi for.
	var placed []*core.Instruction
	var work []int
	inWork := make([]int32, len(cfg.Blocks))
	hasPhi := make([]int32, len(cfg.Blocks))
	for ai, a := range allocas {
		stamp := int32(ai + 1)
		for _, u := range a.UseList() {
			if u.User.Op() == core.OpStore {
				bi := cfg.Index(u.User.Parent())
				if inWork[bi] != stamp {
					inWork[bi] = stamp
					work = append(work, bi)
				}
			}
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fr := range df[b] {
				if hasPhi[fr] == stamp {
					continue
				}
				hasPhi[fr] = stamp
				phi := core.NewInstruction(core.OpPhi, a.Allocated)
				phi.SetName(a.Name() + ".phi")
				cfg.Blocks[fr].InsertAt(0, phi)
				id = append(id, make([]int32, phi.Num()+1-len(id))...)
				id[phi.Num()] = stamp
				placed = append(placed, phi)
				if inWork[fr] != stamp {
					inWork[fr] = stamp
					work = append(work, fr)
				}
			}
		}
	}
	phiOf := func(phi *core.Instruction) (int, bool) {
		if phi.Num() >= len(id) || id[phi.Num()] == 0 {
			return 0, false
		}
		return int(id[phi.Num()]) - 1, true
	}

	// Renaming walk over the dominator tree. cur[ai] is the value alloca
	// ai holds where the walk is, nil before any store; saved logs what
	// each store or phi overwrote there, for the block that made it to
	// restore on the way back up. A block's walk is done with buf before
	// its children's begin, so they share it.
	cur := make([]core.Value, len(allocas))
	type save struct {
		ai int
		v  core.Value
	}
	var saved []save
	set := func(ai int, v core.Value) {
		saved = append(saved, save{ai, cur[ai]})
		cur[ai] = v
	}
	value := func(ai int) core.Value {
		if v := cur[ai]; v != nil {
			return v
		}
		return core.NewUndef(allocas[ai].Allocated)
	}
	var buf []*core.Instruction
	var rename func(b int)
	rename = func(b int) {
		bb := cfg.Blocks[b]
		mark := len(saved)

		buf = append(buf[:0], bb.Instructions()...)
		for _, in := range buf {
			switch in.Op() {
			case core.OpPhi:
				if ai, ok := phiOf(in); ok {
					set(ai, in)
				}
			case core.OpLoad:
				ai, isProm := allocaOf(in.Operand(0))
				if !isProm {
					continue
				}
				core.ReplaceAllUsesWith(in, value(ai))
				in.EraseFromParent()
				s.Add("mem2reg.loads", 1)
			case core.OpStore:
				ai, isProm := allocaOf(in.Operand(1))
				if !isProm {
					continue
				}
				set(ai, in.Operand(0))
				in.EraseFromParent()
				s.Add("mem2reg.stores", 1)
			}
		}

		// Fill phi incomings in successors.
		for _, si := range cfg.Succs[b] {
			for _, phi := range cfg.Blocks[si].Phis() {
				if ai, ok := phiOf(phi); ok {
					phi.AddPhiIncoming(value(ai), bb)
				}
			}
		}

		for _, ch := range dt.Children[b] {
			rename(ch)
		}
		for i := len(saved) - 1; i >= mark; i-- {
			cur[saved[i].ai] = saved[i].v
		}
		saved = saved[:mark]
	}
	rename(0)

	// Unreachable predecessors are never visited by the renaming walk;
	// give their phi edges undef so the phi/predecessor invariant holds.
	// The CFG lists a block's predecessors once per edge, a
	// predecessor's edges next to each other.
	for _, phi := range placed {
		ai, _ := phiOf(phi)
		preds := cfg.Preds[cfg.Index(phi.Parent())]
		for k, p := range preds {
			if k > 0 && p == preds[k-1] {
				continue
			}
			if pb := cfg.Blocks[p]; phi.PhiIncomingFor(pb) == nil {
				phi.AddPhiIncoming(core.NewUndef(allocas[ai].Allocated), pb)
			}
		}
	}

	// Remove the allocas (all loads/stores are gone; unreachable-block
	// uses may remain — clear them).
	for _, a := range allocas {
		for _, u := range a.Uses() {
			// only possible in unreachable blocks
			dead := u.User
			if dead.NumUses() > 0 {
				core.ReplaceAllUsesWith(dead, core.NewUndef(dead.Type()))
			}
			dead.EraseFromParent()
		}
		a.EraseFromParent()
		s.Add("mem2reg.promoted", 1)
	}

	// Phis placed in blocks that turned out to lack the value on some
	// path already default to undef above. Dead phis (never used) are
	// cleaned by DCE/ADCE later.
	return true
}
