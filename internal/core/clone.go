package core

import (
	"fmt"
	"slices"
)

// Function cloning and restricted tail duplication for the tier-2
// optimizing translator. The clone is detached — it carries the original
// name, signature and parent module (so types and symbol references
// resolve) but is NOT registered in the module, so it can be transformed
// and discarded without the module ever observing an intermediate state.
//
// A clone's instructions hold tracked uses on shared module-level values
// (functions, globals), so cloning and discarding mutate those shared
// use lists: callers that clone concurrently with other IR mutation must
// serialize (codegen holds a package mutex around all tier-2 transforms).

// CloneFunctionBody returns a detached private copy of f: same name,
// signature and parent module, fresh blocks/instructions/arguments.
// Blocks keep their order, so index-based metadata (per-block profile
// heat) transfers directly. Operands that are module-level values —
// constants, globals, functions (including recursive references to f
// itself) — are shared, not copied. Discard the clone with
// DiscardFunctionBody when done.
//
// The copy is numbered densely in body order, and its arguments, blocks,
// instructions and their operand, block and use lists are carved from
// one slab each, sized from the original.
func CloneFunctionBody(f *Function) *Function {
	nf := &Function{
		name:     f.name,
		sig:      f.sig,
		ty:       f.ty,
		parent:   f.parent,
		Internal: f.Internal,
		nextID:   f.nextID,
	}
	args := make([]Argument, len(f.Params))
	nf.Params = make([]*Argument, len(f.Params))
	for i, p := range f.Params {
		args[i] = Argument{name: p.name, ty: p.ty, parent: nf, index: p.index}
		args[i].uses = make([]Use, 0, len(p.uses))
		nf.Params[i] = &args[i]
	}
	// The copy's numbers: blocks by index, instructions in layout order.
	// insAt and blockAt map an original's number to its copy's.
	nIns, nOps, nRefs, nUses := 0, 0, 0, 0
	at := make([]int32, f.InstrSlots()+f.BlockSlots())
	insAt, blockAt := at[:f.InstrSlots()], at[f.InstrSlots():]
	for bi, bb := range f.Blocks {
		blockAt[bb.num] = int32(bi)
		for _, in := range bb.instrs {
			insAt[in.num] = int32(nIns)
			nIns++
			nOps += len(in.ops)
			nRefs += len(in.blocks)
			nUses += len(in.uses)
		}
	}
	nf.blockSlots, nf.instrSlots = int32(len(f.Blocks)), int32(nIns)
	blocks := make([]BasicBlock, len(f.Blocks))
	nf.Blocks = make([]*BasicBlock, len(f.Blocks))
	ins := make([]Instruction, nIns)
	insPtrs := make([]*Instruction, nIns)
	ops := make([]Value, nOps)
	refs := make([]*BasicBlock, nRefs)
	uses := make([]Use, nUses)
	k := 0
	for bi, bb := range f.Blocks {
		nb := &blocks[bi]
		nb.name, nb.parent, nb.num = bb.name, nf, int32(bi)
		nb.instrs = insPtrs[k : k+len(bb.instrs) : k+len(bb.instrs)]
		nf.Blocks[bi] = nb
		for j, in := range bb.instrs {
			cl := &ins[k]
			*cl = Instruction{op: in.op, num: int32(k), ty: in.ty, name: in.name, parent: nb,
				Allocated: in.Allocated, ExceptionsEnabled: in.ExceptionsEnabled}
			if len(in.Cases) > 0 {
				cl.Cases = append([]int64(nil), in.Cases...)
			}
			cl.uses, uses = uses[:0:len(in.uses)], uses[len(in.uses):]
			cl.ops, ops = ops[:len(in.ops):len(in.ops)], ops[len(in.ops):]
			cl.blocks, refs = refs[:len(in.blocks):len(in.blocks)], refs[len(in.blocks):]
			nb.instrs[j] = cl
			k++
		}
	}
	// Wire operands and block references, now that every clone exists
	// for forward references (phis, back edges) to resolve to.
	k = 0
	for _, bb := range f.Blocks {
		for _, in := range bb.instrs {
			cl := &ins[k]
			k++
			for i, op := range in.ops {
				switch v := op.(type) {
				case *Instruction:
					if p := v.parent; p != nil && p.parent == f {
						op = &ins[insAt[v.num]]
					}
				case *Argument:
					if v.parent == f {
						op = &args[v.index]
					}
				}
				cl.ops[i] = op
				trackUse(op, Use{User: cl, Index: i})
			}
			for i, ob := range in.blocks {
				if ob != nil && ob.parent == f {
					cl.blocks[i] = &blocks[blockAt[ob.num]]
				}
			}
		}
	}
	return nf
}

// DiscardFunctionBody releases a detached clone: every operand use the
// body holds — including uses on shared functions and globals — is
// untracked, and the block list is cleared. The clone must not be used
// afterwards.
func DiscardFunctionBody(f *Function) {
	for _, bb := range f.Blocks {
		for _, in := range bb.instrs {
			in.dropOperands()
			in.blocks = nil
			in.parent = nil
		}
		bb.instrs = nil
		bb.parent = nil
	}
	f.Blocks = nil
}

// canTailDuplicate reports whether bb may be duplicated for one
// predecessor without breaking SSA. The restriction: every value defined
// in bb is used only inside bb, or as a phi incoming in a successor
// attributed to an edge leaving bb. Then the duplicate's values need no
// new dominance relationships — the only repairs are phi incomings on
// bb's successors.
func canTailDuplicate(bb *BasicBlock) bool {
	if bb == bb.parent.Blocks[0] {
		return false // duplicating the entry makes no sense
	}
	term := bb.Terminator()
	if term == nil {
		return false
	}
	switch term.op {
	case OpBr, OpMbr, OpRet:
	default:
		return false // invoke/unwind: frame bookkeeping is not worth duplicating
	}
	for _, in := range bb.instrs {
		if !in.HasResult() {
			continue
		}
		for _, u := range in.uses {
			if u.User.parent == bb {
				continue
			}
			if u.User.op == OpPhi && slices.Contains(term.blocks, u.User.parent) &&
				u.Index < len(u.User.blocks) && u.User.blocks[u.Index] == bb {
				continue
			}
			return false
		}
	}
	return true
}

// TailDuplicate clones bb as a private copy reached only from pred,
// retargeting pred's terminator edge(s) from bb to the copy and
// repairing phis: bb's own phis lose pred's incoming (the copy starts
// from that value directly), and every successor phi gains an incoming
// for the copy. Returns (nil, false) when duplication would break SSA
// (see canTailDuplicate) or pred does not branch to bb. The caller is
// expected to verify the function afterwards and fall back on failure.
func TailDuplicate(f *Function, pred, bb *BasicBlock) (*BasicBlock, bool) {
	if !canTailDuplicate(bb) {
		return nil, false
	}
	pt := pred.Terminator()
	if pt == nil {
		return nil, false
	}
	targets := false
	for _, s := range pt.blocks {
		if s == bb {
			targets = true
		}
	}
	if !targets {
		return nil, false
	}

	dup := f.NewBlock(fmt.Sprintf("%s.dup%d", bb.name, len(f.Blocks)))
	// The copy holds bb's instructions past its phis. Phis collapse: the
	// copy has exactly one predecessor, so each phi becomes the value
	// flowing in from pred. bb is small, so a value is mapped by its
	// position in bb.
	phis := bb.FirstNonPhi()
	origs := bb.instrs[phis:]
	clones := make([]*Instruction, len(origs))
	mapv := func(v Value) Value {
		in, ok := v.(*Instruction)
		if !ok || in.parent != bb {
			return v
		}
		switch i := slices.Index(bb.instrs, in); {
		case i < 0:
			return v
		case i < phis:
			return in.PhiIncomingFor(pred)
		default:
			return clones[i-phis]
		}
	}
	for k, in := range origs {
		cl := NewInstruction(in.op, in.ty)
		cl.ExceptionsEnabled = in.ExceptionsEnabled
		cl.Allocated = in.Allocated
		cl.Cases = append([]int64(nil), in.Cases...)
		cl.name = in.name
		dup.Append(cl)
		clones[k] = cl
	}
	for k, cl := range clones {
		cl.ops = make([]Value, 0, len(origs[k].ops))
		for _, op := range origs[k].ops {
			cl.AddOperand(mapv(op))
		}
		for _, ob := range origs[k].blocks {
			cl.AddBlock(ob) // same successors as the original
		}
	}

	// Successor phis: the copy is a new predecessor carrying the same
	// values bb would have delivered (mapped through the clone).
	succs := bb.Terminator().blocks
	for i, s := range succs {
		if slices.Contains(succs[:i], s) {
			continue
		}
		for _, phi := range s.Phis() {
			if v := phi.PhiIncomingFor(bb); v != nil {
				phi.AddPhiIncoming(mapv(v), dup)
			}
		}
	}

	// Retarget pred's edge(s) and drop pred's incomings from bb's phis.
	for i, s := range pt.blocks {
		if s == bb {
			pt.SetBlock(i, dup)
		}
	}
	for _, phi := range bb.Phis() {
		for i := 0; i < len(phi.blocks); i++ {
			if phi.blocks[i] == pred {
				phi.RemovePhiIncoming(i)
				break
			}
		}
	}
	return dup, true
}
