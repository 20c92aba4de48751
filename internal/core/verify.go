package core

import (
	"fmt"
	"strings"
)

// VerifyError aggregates all problems found while verifying a module or
// function.
type VerifyError struct {
	Problems []string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("verify: %d problem(s):\n  %s",
		len(e.Problems), strings.Join(e.Problems, "\n  "))
}

type verifier struct {
	problems []string
}

func (v *verifier) errf(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// Verify checks that a module is well formed LLVA: strict type rules on
// every instruction, exactly one terminator per block, phi/predecessor
// agreement, and the SSA dominance property (every use is dominated by its
// definition).
func Verify(m *Module) error {
	v := &verifier{}
	if m.PointerSize != 4 && m.PointerSize != 8 {
		v.errf("module: pointer size must be 4 or 8, got %d", m.PointerSize)
	}
	for _, g := range m.Globals {
		if g.Init != nil && g.Init.Type() != g.ValueType() {
			v.errf("global %%%s: initializer type %s does not match %s",
				g.Name(), g.Init.Type(), g.ValueType())
		}
		if !g.ValueType().IsSized() {
			v.errf("global %%%s: unsized value type %s", g.Name(), g.ValueType())
		}
	}
	for _, f := range m.Functions {
		v.checkFunction(f)
	}
	if len(v.problems) > 0 {
		return &VerifyError{Problems: v.problems}
	}
	return nil
}

// VerifyFunction checks a single function.
func VerifyFunction(f *Function) error {
	v := &verifier{}
	v.checkFunction(f)
	if len(v.problems) > 0 {
		return &VerifyError{Problems: v.problems}
	}
	return nil
}

func (v *verifier) checkFunction(f *Function) {
	sig := f.Signature()
	if rt := sig.Ret(); rt.Kind() != VoidKind && !rt.IsFirstClass() {
		v.errf("%%%s: return type %s is not first-class", f.Name(), rt)
	}
	for _, p := range sig.Params() {
		if !p.IsFirstClass() {
			v.errf("%%%s: parameter type %s is not first-class", f.Name(), p)
		}
	}
	if f.IsDeclaration() {
		return
	}

	blockIndex := make(map[*BasicBlock]int, len(f.Blocks))
	for i, bb := range f.Blocks {
		blockIndex[bb] = i
	}

	succs, preds := CFGEdges(f.Blocks, blockIndex)
	for bi, bb := range f.Blocks {
		v.checkBlock(f, bb, blockIndex, preds[bi])
	}
	v.checkDominance(f, blockIndex, ComputeDominance(succs, preds))
}

// where names bb for a problem report.
func where(f *Function, bb *BasicBlock) string {
	return "%" + f.Name() + "/%" + bb.Name()
}

// checkBlock checks bb's shape and instructions; preds are its
// predecessors' indices, one per edge.
func (v *verifier) checkBlock(f *Function, bb *BasicBlock, blockIndex map[*BasicBlock]int, preds []int) {
	if len(bb.instrs) == 0 {
		v.errf("%s: empty basic block", where(f, bb))
		return
	}
	firstNonPhi := bb.FirstNonPhi()
	for i, in := range bb.instrs {
		last := i == len(bb.instrs)-1
		if in.IsTerminator() != last {
			if in.IsTerminator() {
				v.errf("%s: terminator %s in the middle of the block", where(f, bb), in.Op())
			} else {
				v.errf("%s: block does not end in a terminator", where(f, bb))
			}
		}
		if in.op == OpPhi && i >= firstNonPhi {
			v.errf("%s: phi %%%s after non-phi instruction", where(f, bb), in.Name())
		}
		for _, s := range in.Blocks() {
			if s == nil {
				v.errf("%s: %s references nil block", where(f, bb), in.Op())
			} else if _, ok := blockIndex[s]; !ok {
				v.errf("%s: %s references block %%%s from another function",
					where(f, bb), in.Op(), s.Name())
			}
		}
		v.checkInstr(f, bb, in)
	}
	// Phi incoming blocks must be exactly the predecessors. A predecessor
	// that branches here twice is one predecessor: its edges are adjacent.
	nPreds := 0
	for k, p := range preds {
		if k == 0 || p != preds[k-1] {
			nPreds++
		}
	}
	for _, phi := range bb.instrs[:firstNonPhi] {
		if len(phi.Blocks()) != nPreds {
			v.errf("%s: phi %%%s has %d incoming values but block has %d predecessors",
				where(f, bb), phi.Name(), len(phi.Blocks()), nPreds)
			continue
		}
		for k, p := range preds {
			if k > 0 && p == preds[k-1] {
				continue
			}
			if pb := f.Blocks[p]; phi.PhiIncomingFor(pb) == nil {
				v.errf("%s: phi %%%s missing incoming for predecessor %%%s",
					where(f, bb), phi.Name(), pb.Name())
			}
		}
	}
}

func (v *verifier) checkInstr(f *Function, bb *BasicBlock, in *Instruction) {
	ctx := f.Parent().Types()
	op := in.op
	bad := func(format string, args ...any) {
		v.errf("%s: %s: %s", where(f, bb), in.Op(), fmt.Sprintf(format, args...))
	}
	switch {
	case op == OpShl || op == OpShr:
		if in.NumOperands() != 2 {
			bad("needs 2 operands")
			return
		}
		if !in.Operand(0).Type().IsInteger() {
			bad("shifted value must be integer, got %s", in.Operand(0).Type())
		}
		if in.Operand(1).Type().Kind() != UByteKind {
			bad("shift amount must be ubyte, got %s", in.Operand(1).Type())
		}
		if in.ty != in.Operand(0).Type() {
			bad("result type %s != operand type %s", in.ty, in.Operand(0).Type())
		}
	case op.IsBinary():
		if in.NumOperands() != 2 {
			bad("needs 2 operands")
			return
		}
		x, y := in.Operand(0), in.Operand(1)
		if x.Type() != y.Type() {
			bad("operand types differ: %s vs %s (no implicit coercion in LLVA)", x.Type(), y.Type())
		}
		if op.IsComparison() {
			if in.ty.Kind() != BoolKind {
				bad("comparison result must be bool")
			}
		} else {
			if in.ty != x.Type() {
				bad("result type %s != operand type %s", in.ty, x.Type())
			}
			if op <= OpRem {
				if !x.Type().IsInteger() && !x.Type().IsFloat() {
					bad("arithmetic on non-numeric type %s", x.Type())
				}
			} else if !x.Type().IsInteger() && x.Type().Kind() != BoolKind {
				bad("bitwise op on type %s", x.Type())
			}
		}
	case op == OpRet:
		rt := f.Signature().Ret()
		if rt.Kind() == VoidKind {
			if in.NumOperands() != 0 {
				bad("returning a value from a void function")
			}
		} else if in.NumOperands() != 1 {
			bad("missing return value")
		} else if in.Operand(0).Type() != rt {
			bad("return type %s, function returns %s", in.Operand(0).Type(), rt)
		}
	case op == OpBr:
		switch in.NumBlocks() {
		case 1:
			if in.NumOperands() != 0 {
				bad("unconditional br with operands")
			}
		case 2:
			if in.NumOperands() != 1 || in.Operand(0).Type().Kind() != BoolKind {
				bad("conditional br requires a bool condition")
			}
		default:
			bad("br with %d targets", in.NumBlocks())
		}
	case op == OpMbr:
		if in.NumOperands() != 1 || !in.Operand(0).Type().IsInteger() {
			bad("mbr requires one integer index operand")
		}
		if in.NumBlocks() != len(in.Cases)+1 {
			bad("mbr has %d targets for %d cases", in.NumBlocks(), len(in.Cases))
		}
	case op == OpCall || op == OpInvoke:
		if in.NumOperands() < 1 {
			bad("missing callee")
			return
		}
		pt := in.Callee().Type()
		if pt.Kind() != PointerKind || pt.Elem().Kind() != FunctionKind {
			bad("callee type %s is not pointer-to-function", pt)
			return
		}
		sig := pt.Elem()
		args := in.CallArgs()
		if !sig.Variadic() && len(args) != len(sig.Params()) ||
			sig.Variadic() && len(args) < len(sig.Params()) {
			bad("%d arguments for signature %s", len(args), sig)
			return
		}
		for i, p := range sig.Params() {
			if args[i].Type() != p {
				bad("argument %d has type %s, want %s", i, args[i].Type(), p)
			}
		}
		if in.ty != sig.Ret() {
			bad("result type %s != signature return %s", in.ty, sig.Ret())
		}
		if op == OpInvoke && in.NumBlocks() != 2 {
			bad("invoke needs normal and unwind targets")
		}
	case op == OpUnwind:
		if in.NumOperands() != 0 {
			bad("unwind takes no operands")
		}
	case op == OpLoad:
		pt := in.Operand(0).Type()
		if pt.Kind() != PointerKind {
			bad("load of non-pointer %s", pt)
		} else {
			if in.ty != pt.Elem() {
				bad("loaded type %s != pointee %s", in.ty, pt.Elem())
			}
			if !pt.Elem().IsFirstClass() {
				bad("load of non-first-class type %s", pt.Elem())
			}
		}
	case op == OpStore:
		if in.NumOperands() != 2 {
			bad("store needs value and pointer")
			return
		}
		pt := in.Operand(1).Type()
		if pt.Kind() != PointerKind {
			bad("store to non-pointer %s", pt)
		} else if in.Operand(0).Type() != pt.Elem() {
			bad("stored type %s != pointee %s", in.Operand(0).Type(), pt.Elem())
		}
	case op == OpGetElementPtr:
		pt := in.Operand(0).Type()
		if pt.Kind() != PointerKind {
			bad("getelementptr on non-pointer %s", pt)
			return
		}
		rt, err := GEPResultType(pt.Elem(), in.Operands()[1:])
		if err != nil {
			bad("%v", err)
			return
		}
		want := ctx.Pointer(rt)
		if in.ty != want {
			bad("result type %s, want %s", in.ty, want)
		}
	case op == OpAlloca:
		if in.Allocated == nil || !in.Allocated.IsSized() {
			bad("alloca of unsized type")
			return
		}
		if in.ty != ctx.Pointer(in.Allocated) {
			bad("result type %s, want %s", in.ty, ctx.Pointer(in.Allocated))
		}
		if in.NumOperands() == 1 && in.Operand(0).Type().Kind() != UIntKind {
			bad("alloca count must be uint")
		}
	case op == OpCast:
		if err := CheckCast(in.Operand(0).Type(), in.ty); err != nil {
			bad("%v", err)
		}
	case op == OpPhi:
		if !in.ty.IsFirstClass() {
			bad("phi of non-first-class type %s", in.ty)
		}
		if in.NumOperands() != in.NumBlocks() {
			bad("phi value/block count mismatch")
		}
		for i, o := range in.Operands() {
			if o.Type() != in.ty {
				bad("incoming %d has type %s, want %s", i, o.Type(), in.ty)
			}
		}
	}
}

// checkDominance verifies the SSA property: every instruction operand that
// is itself an instruction must be defined at a program point dominating
// the use. Phi uses are checked at the end of the incoming block. It is
// linear in the body, bar the dominator tree's near-linear build.
func (v *verifier) checkDominance(f *Function, blockIndex map[*BasicBlock]int, dom *Dominance) {
	// position of each instruction within its block for intra-block checks
	pos := make(map[*Instruction]int, f.NumInstructions())
	for _, bb := range f.Blocks {
		for i, in := range bb.instrs {
			pos[in] = i
		}
	}

	for bi, bb := range f.Blocks {
		for _, in := range bb.instrs {
			for oi, op := range in.ops {
				def, ok := op.(*Instruction)
				if !ok {
					continue
				}
				if def.parent == nil {
					v.errf("%%%s/%%%s: %s uses detached instruction", f.Name(), bb.Name(), in.Op())
					continue
				}
				defBlock, ok := blockIndex[def.parent]
				if !ok {
					v.errf("%%%s/%%%s: %s uses %%%s of another function", f.Name(), bb.Name(), in.Op(), def.Name())
					continue
				}
				useBlock, usePos := bi, pos[in]
				if in.op == OpPhi {
					// The end of the incoming block. A missing, nil or
					// foreign one is reported by checkInstr or checkBlock.
					if oi >= len(in.blocks) {
						continue
					}
					if useBlock, ok = blockIndex[in.blocks[oi]]; !ok {
						continue
					}
					usePos = len(f.Blocks[useBlock].instrs)
				}
				if defBlock == useBlock {
					if pos[def] >= usePos {
						v.errf("%%%s/%%%s: %%%s used before its definition",
							f.Name(), bb.Name(), def.Name())
					}
				} else if !dom.Dominates(defBlock, useBlock) {
					v.errf("%%%s/%%%s: use of %%%s (defined in %%%s) is not dominated by its definition",
						f.Name(), f.Blocks[useBlock].Name(), def.Name(), def.parent.Name())
				}
			}
		}
	}
}
