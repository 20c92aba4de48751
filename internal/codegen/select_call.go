package codegen

import (
	"llva/internal/core"
	"llva/internal/target"
)

// calleeKind classifies a call target.
type calleeKind int

const (
	callDirect   calleeKind = iota // defined LLVA function: MCall
	callExtern                     // runtime external or intrinsic: MCallExt
	callIndirect                   // through a register: MCallInd
)

func classifyCallee(v core.Value) (calleeKind, string) {
	f, ok := v.(*core.Function)
	if !ok {
		return callIndirect, ""
	}
	if f.IsDeclaration() {
		return callExtern, f.Name()
	}
	return callDirect, f.Name()
}

// selCall lowers a call. For invokes, pre/post hold the instructions to
// emit immediately before and after the call instruction itself.
func (s *selector) selCall(bb *core.BasicBlock, in *core.Instruction,
	pre, post []target.MInstr) {
	d := s.desc
	kind, sym := classifyCallee(in.Callee())
	args := in.CallArgs()

	// Evaluate arguments into virtual registers first.
	argRegs := zeroed(s.ws.callArgs, len(args))
	s.ws.callArgs = argRegs
	for i, a := range args {
		argRegs[i] = s.val(a)
	}

	if d.StackArgs {
		s.selCallStackArgs(in, kind, sym, args, argRegs, pre, post)
		return
	}

	// External (native runtime) functions receive every argument as raw
	// 64-bit words in the integer argument registers: FP values travel as
	// their bit patterns (the machine cannot know the runtime signature).
	if kind == callExtern {
		for i, a := range args {
			if i >= len(d.ArgRegs) {
				panic("codegen: too many arguments to external function " + sym)
			}
			if isFPType(a.Type()) {
				s.emit(target.MInstr{Op: target.MCvt, Cvt: target.CvtBits,
					Rd: d.ArgRegs[i], Rs1: argRegs[i], Size: 8})
			} else {
				s.emit(target.MInstr{Op: target.MMovRR, Rd: d.ArgRegs[i], Rs1: argRegs[i]})
			}
		}
		for _, m := range pre {
			s.emit(m)
		}
		s.emit(target.MInstr{Op: target.MCallExt, Sym: sym, NArgs: uint8(len(args))})
		s.moveResult(in)
		for _, m := range post {
			s.emit(m)
		}
		return
	}

	// Register-argument convention (vsparc): integer args fill ArgRegs,
	// FP args fill FPArgRegs, overflow goes to the outgoing stack area at
	// [SP + 8k].
	intIdx, fpIdx, stackIdx := 0, 0, 0
	for i, a := range args {
		if isFPType(a.Type()) {
			if fpIdx < len(d.FPArgRegs) {
				s.emit(target.MInstr{Op: target.MMovRR, Rd: d.FPArgRegs[fpIdx],
					Rs1: argRegs[i], FP: true})
				fpIdx++
				continue
			}
		} else {
			if intIdx < len(d.ArgRegs) {
				s.emit(target.MInstr{Op: target.MMovRR, Rd: d.ArgRegs[intIdx],
					Rs1: argRegs[i]})
				intIdx++
				continue
			}
		}
		s.emit(target.MInstr{Op: target.MStore, Rs1: argRegs[i], Base: d.SP,
			Index: target.NoReg, Disp: int32(8 * stackIdx), Size: 8,
			FP: isFPType(a.Type())})
		stackIdx++
	}
	if stackIdx > s.maxStackArgs {
		s.maxStackArgs = stackIdx
	}

	for _, m := range pre {
		s.emit(m)
	}
	switch kind {
	case callDirect:
		s.emit(target.MInstr{Op: target.MCall, Sym: sym})
	case callExtern:
		s.emit(target.MInstr{Op: target.MCallExt, Sym: sym, NArgs: uint8(len(args))})
	case callIndirect:
		fn := s.val(in.Callee())
		s.emit(target.MInstr{Op: target.MCallInd, Rs1: fn})
	}
	s.moveResult(in)
	for _, m := range post {
		s.emit(m)
	}
}

// selCallStackArgs implements the vx86 convention: arguments pushed
// right-to-left, caller cleans the stack.
func (s *selector) selCallStackArgs(in *core.Instruction, kind calleeKind,
	sym string, args []core.Value, argRegs []target.Reg, pre, post []target.MInstr) {
	for i := len(args) - 1; i >= 0; i-- {
		s.emit(target.MInstr{Op: target.MPush, Rs1: argRegs[i],
			FP: isFPType(args[i].Type())})
	}
	for _, m := range pre {
		s.emit(m)
	}
	switch kind {
	case callDirect:
		s.emit(target.MInstr{Op: target.MCall, Sym: sym})
	case callExtern:
		s.emit(target.MInstr{Op: target.MCallExt, Sym: sym, NArgs: uint8(len(args))})
	case callIndirect:
		fn := s.val(in.Callee())
		s.emit(target.MInstr{Op: target.MCallInd, Rs1: fn})
	}
	s.moveResult(in)
	if n := len(args); n > 0 {
		s.emit(target.MInstr{Op: target.MAdjSP, Imm: int64(8 * n)})
	}
	for _, m := range post {
		s.emit(m)
	}
}

func (s *selector) moveResult(in *core.Instruction) {
	if !in.HasResult() {
		return
	}
	if isFPType(in.Type()) {
		s.emit(target.MInstr{Op: target.MMovRR, Rd: s.reg(in),
			Rs1: s.desc.FPRetReg, FP: true})
	} else {
		s.emit(target.MInstr{Op: target.MMovRR, Rd: s.reg(in), Rs1: s.desc.RetReg})
	}
}

// selInvoke lowers an invoke: push an unwind handler around the call,
// then branch to the normal destination. An unwind in any callee pops the
// handler, restores this frame's SP/FP, and lands on the unwind block.
func (s *selector) selInvoke(bb *core.BasicBlock, in *core.Instruction) {
	normal, unwind := in.Block(0), in.Block(1)
	// Phi moves for the unwind edge must complete before the handler can
	// possibly run, i.e. before the call; their values cannot depend on
	// the invoke's own result (SSA dominance forbids it on that path).
	s.emitPhiMoves(bb, unwind)
	pre := []target.MInstr{{Op: target.MInvokePush, Target: s.block(unwind)}}
	post := []target.MInstr{{Op: target.MInvokePop}}
	s.selCall(bb, in, pre, post)
	s.emitPhiMoves(bb, normal)
	s.emit(target.MInstr{Op: target.MJmp, Target: s.block(normal)})
}
