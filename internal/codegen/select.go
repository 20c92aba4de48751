package codegen

import (
	"fmt"
	"slices"

	"llva/internal/core"
	"llva/internal/target"
)

// selector lowers one function's LLVA instructions to machine IR over an
// infinite virtual register file; register allocation then maps virtual
// registers onto the target.
type selector struct {
	t    *Translator
	desc *target.Desc
	f    *core.Function
	lay  core.Layout
	// ws is the workspace the tables below, and every later stage's
	// scratch, are carved from.
	ws *workspace

	code       []target.MInstr
	blocks     []*core.BasicBlock
	blockIdx   []int32 // block number -> block index
	blockStart []int   // block index -> first instruction index (epilogue last)

	vals    []valInfo    // by instruction number
	argRegs []target.Reg // by parameter index
	vFP     []bool       // virtual register class, indexed by vreg - VRegBase
	nextV   target.Reg

	// frame state
	saveArea     int32 // reserved register-save area below FP
	allocaBytes  int32
	spillBytes   int32 // set by the register allocator
	savedRegs    []target.Reg
	hasCalls     bool
	hasInvoke    bool
	maxStackArgs int

	// spill traffic emitted by the allocator's rewrite (telemetry)
	nSpillLoads  int
	nSpillStores int

	// blockHeat is per-block profile heat (indexed like blockStart), set
	// only on the tier-2 path. It weighs the allocator's live intervals
	// so that heat-weighted eviction keeps hot-loop values in registers.
	blockHeat []uint64
}

// valInfo is what selection knows of one instruction of the function.
type valInfo struct {
	reg     target.Reg // the result's virtual register, or 0
	carrier target.Reg // a phi's carrier register, written by predecessors
	// allocaOff is a fixed-size alloca's positive offset below FP, or 0:
	// the frame's register-save area is never empty, so no alloca
	// starts at FP.
	allocaOff int32
	fused     bool // a comparison folded into its block's branch (vx86)
}

// newSelector returns ws's selector, reset to lower f.
func newSelector(t *Translator, f *core.Function, ws *workspace) *selector {
	s := &ws.sel
	*s = selector{
		t:     t,
		desc:  t.desc,
		f:     f,
		lay:   t.lay,
		ws:    ws,
		nextV: target.VRegBase,
	}
	if !t.desc.StackArgs {
		// vsparc: fixed register-save area at the top of the frame:
		// return address, caller's FP, and up to 33 callee-saved slots
		// (17 integer + 15 FP allocatable registers).
		s.saveArea = 280
	} else {
		// vx86: the return address and caller's FP live above FP (pushed
		// by call and the prologue), so the save area below FP holds only
		// callee-saved registers. It is sized for the full pool because
		// alloca offsets are assigned during selection, before allocation
		// knows which registers the function uses.
		s.saveArea = int32(8 * (len(t.desc.Allocatable) + len(t.desc.FPAllocatable)))
	}
	return s
}

func (s *selector) newVReg(fp bool) target.Reg {
	r := s.nextV
	s.nextV++
	s.vFP = append(s.vFP, fp)
	return r
}

func (s *selector) isFPReg(r target.Reg) bool {
	if r.IsVirtual() {
		return s.vFP[r-target.VRegBase]
	}
	return r.IsFP()
}

func isFPType(t *core.Type) bool { return t.IsFloat() }

func (s *selector) emit(m target.MInstr) int {
	s.code = append(s.code, m)
	return len(s.code) - 1
}

// emitALU emits rd <- rs1 op rs2. The machine IR is uniformly
// three-address; on vx86 the spill rewriter legalizes it into two-address
// form with memory operands.
func (s *selector) emitALU(alu target.ALUOp, rd, rs1, rs2 target.Reg,
	size uint8, signed, fp bool) {
	s.emit(target.MInstr{Op: target.MALU, Alu: alu, Rd: rd, Rs1: rs1,
		Rs2: rs2, Size: size, Signed: signed, FP: fp})
}

// sizeOf returns the memory width of a first-class type.
func (s *selector) sizeOf(t *core.Type) uint8 {
	return uint8(s.lay.Size(t))
}

// block returns the index of bb, a block of the function.
func (s *selector) block(bb *core.BasicBlock) int32 { return s.blockIdx[bb.Num()] }

// reg returns the virtual register of an instruction's result.
func (s *selector) reg(in *core.Instruction) target.Reg { return s.vals[in.Num()].reg }

func (s *selector) run() {
	f, ws := s.f, s.ws
	s.blocks = f.Blocks
	s.blockIdx = zeroed(ws.blockIdx, f.BlockSlots())
	for i, bb := range f.Blocks {
		s.blockIdx[bb.Num()] = int32(i)
	}
	s.vals = zeroed(ws.vals, f.InstrSlots())
	// About two virtual registers per instruction: results, phi
	// carriers and materialized constants.
	s.vFP = emptied(ws.vFP, 2*f.InstrSlots()+len(f.Params))
	// Pre-assign virtual registers to every parameter and result-bearing
	// instruction, so cross-block uses resolve regardless of layout order.
	s.argRegs = zeroed(ws.argRegs, len(f.Params))
	for i, p := range f.Params {
		s.argRegs[i] = s.newVReg(isFPType(p.Type()))
	}
	for _, bb := range f.Blocks {
		for _, in := range bb.Instructions() {
			v := &s.vals[in.Num()]
			if in.HasResult() {
				v.reg = s.newVReg(isFPType(in.Type()))
			}
			if in.Op() == core.OpPhi {
				v.carrier = s.newVReg(isFPType(in.Type()))
			}
			if in.Op() == core.OpCall || in.Op() == core.OpInvoke {
				s.hasCalls = true
			}
			if in.Op() == core.OpInvoke {
				s.hasInvoke = true
			}
		}
	}
	// Preallocate all fixed-size allocas in the frame (Section 3.2).
	for _, bb := range f.Blocks {
		for _, in := range bb.Instructions() {
			if in.Op() == core.OpAlloca && in.NumOperands() == 0 {
				size := int32(s.lay.Size(in.Allocated))
				align := int32(s.lay.Align(in.Allocated))
				s.allocaBytes = (s.allocaBytes + size + align - 1) &^ (align - 1)
				if s.allocaBytes%8 != 0 {
					s.allocaBytes = (s.allocaBytes + 7) &^ 7
				}
				s.vals[in.Num()].allocaOff = s.saveArea + s.allocaBytes
			}
		}
	}
	// Identify comparisons fusable into compare-and-branch (vx86).
	if s.desc.HasFlags {
		for _, bb := range f.Blocks {
			term := bb.Terminator()
			if term == nil || term.Op() != core.OpBr || term.NumBlocks() != 2 {
				continue
			}
			cmp, ok := term.Operand(0).(*core.Instruction)
			if ok && cmp.Op().IsComparison() && cmp.Parent() == bb && cmp.NumUses() == 1 {
				s.vals[cmp.Num()].fused = true
			}
		}
	}

	// Selection emits about two machine instructions per LLVA instruction
	// on either target; sized for that, the list seldom regrows.
	n := f.NumInstructions()
	s.code = emptied(ws.code, 2*n+n/4+8)
	s.blockStart = zeroed(ws.start, len(f.Blocks)+1)
	for bi, bb := range f.Blocks {
		s.blockStart[bi] = len(s.code)
		if bi == 0 {
			s.emitParamMoves()
		}
		// Phi headers: copy carriers into phi registers.
		for _, phi := range bb.Phis() {
			v := s.vals[phi.Num()]
			s.emit(target.MInstr{Op: target.MMovRR, Rd: v.reg,
				Rs1: v.carrier, FP: isFPType(phi.Type())})
		}
		for _, in := range bb.Instructions() {
			s.selectInstr(bb, in)
		}
	}
	s.blockStart[len(f.Blocks)] = len(s.code) // epilogue label
	ws.blockIdx, ws.vals, ws.vFP, ws.argRegs = s.blockIdx, s.vals, s.vFP, s.argRegs
	ws.code, ws.start = s.code, s.blockStart
}

// emitParamMoves copies incoming arguments into their virtual registers.
func (s *selector) emitParamMoves() {
	d := s.desc
	if d.StackArgs {
		// vx86: args at [FP + 16 + 8i] (saved FP and return address below).
		for i, p := range s.f.Params {
			s.emit(target.MInstr{Op: target.MLoad, Rd: s.argRegs[i], Base: d.FP,
				Index: target.NoReg, Disp: int32(16 + 8*i), Size: 8,
				FP: isFPType(p.Type())})
		}
		return
	}
	intIdx, fpIdx, stackIdx := 0, 0, 0
	for i, p := range s.f.Params {
		if isFPType(p.Type()) {
			if fpIdx < len(d.FPArgRegs) {
				s.emit(target.MInstr{Op: target.MMovRR, Rd: s.argRegs[i],
					Rs1: d.FPArgRegs[fpIdx], FP: true})
				fpIdx++
				continue
			}
		} else {
			if intIdx < len(d.ArgRegs) {
				s.emit(target.MInstr{Op: target.MMovRR, Rd: s.argRegs[i],
					Rs1: d.ArgRegs[intIdx]})
				intIdx++
				continue
			}
		}
		// overflow argument on the stack at [FP + 8k]
		s.code = frameInstrs(s.code, d, target.MLoad, s.argRegs[i], int32(8*stackIdx),
			isFPType(p.Type()))
		stackIdx++
	}
}

// synthImm materializes a 64-bit immediate into reg. On vx86 this is one
// movi with an imm64; on vsparc it is a SPARC-style sethi/or chain of
// 16-bit pieces (1-4 instructions). appendImm (regalloc.go) is the
// single implementation.
func (s *selector) synthImm(reg target.Reg, v int64) {
	s.code = appendImm(s.code, reg, v, s.desc)
}

// synthSym materializes the address of a symbol.
func (s *selector) synthSym(reg target.Reg, sym string) {
	if s.desc.WordSize != 4 {
		s.emit(target.MInstr{Op: target.MMovRI, Rd: reg, Sym: sym})
		return
	}
	// hi16 (Scale=1 marks the hi relocation), then or lo16.
	s.emit(target.MInstr{Op: target.MMovRI, Rd: reg, Sym: sym, Scale: 1})
	s.emit(target.MInstr{Op: target.MMovRI, Rd: reg, Sym: sym, HasImm: true})
}

// constWord is the register image of a scalar constant: its canonical
// word.
func constWord(c *core.Constant) int64 {
	w, ok := c.Word()
	if !ok {
		panic("codegen: non-scalar constant operand " + c.Ident())
	}
	return int64(w)
}

// val returns a register holding the canonical value of v, materializing
// constants and symbol addresses as needed.
func (s *selector) val(v core.Value) target.Reg {
	switch x := v.(type) {
	case *core.Argument:
		if x.Parent() != s.f {
			panic(fmt.Sprintf("codegen: no register for %s", v.Ident()))
		}
		return s.argRegs[x.Index()]
	case *core.Instruction:
		if p := x.Parent(); p == nil || p.Parent() != s.f || s.reg(x) == 0 {
			panic(fmt.Sprintf("codegen: no register for %s", v.Ident()))
		}
		return s.reg(x)
	case *core.Constant:
		if x.CK == core.ConstGlobal {
			r := s.newVReg(false)
			s.synthSym(r, x.Ref.Name())
			return r
		}
		if x.Type().IsFloat() {
			ir := s.newVReg(false)
			s.synthImm(ir, constWord(x))
			fr := s.newVReg(true)
			s.emit(target.MInstr{Op: target.MCvt, Cvt: target.CvtBits,
				Rd: fr, Rs1: ir, FP: true, Size: 8})
			return fr
		}
		r := s.newVReg(false)
		s.synthImm(r, constWord(x))
		return r
	case *core.GlobalVariable:
		r := s.newVReg(false)
		s.synthSym(r, x.Name())
		return r
	case *core.Function:
		r := s.newVReg(false)
		s.synthSym(r, x.Name())
		return r
	}
	panic(fmt.Sprintf("codegen: bad operand %T", v))
}

func (s *selector) selectInstr(bb *core.BasicBlock, in *core.Instruction) {
	op := in.Op()
	switch {
	case op == core.OpPhi:
		return // handled at block header / predecessor tails
	case op == core.OpShl || op == core.OpShr:
		s.selBinary(in)
	case op.IsComparison():
		if s.vals[in.Num()].fused {
			return // folded into the branch
		}
		s.selCompare(in)
	case op.IsBinary():
		s.selBinary(in)
	default:
		switch op {
		case core.OpRet:
			s.selRet(in)
		case core.OpBr:
			s.selBr(bb, in)
		case core.OpMbr:
			s.selMbr(bb, in)
		case core.OpLoad:
			s.selLoad(in)
		case core.OpStore:
			s.selStore(in)
		case core.OpGetElementPtr:
			// Multi-use or non-fused GEPs compute an address value.
			if !s.gepFoldable(in) {
				s.computeGEP(in)
			}
		case core.OpAlloca:
			s.selAlloca(in)
		case core.OpCast:
			s.selCast(in)
		case core.OpCall:
			s.selCall(bb, in, nil, nil)
		case core.OpInvoke:
			s.selInvoke(bb, in)
		case core.OpUnwind:
			s.emit(target.MInstr{Op: target.MUnwind})
		default:
			panic("codegen: unhandled opcode " + op.String())
		}
	}
}

// emitPhiMoves writes phi carriers for the edge bb -> succ. It must run in
// the predecessor before its terminator's branch to succ.
func (s *selector) emitPhiMoves(bb, succ *core.BasicBlock) {
	for _, phi := range succ.Phis() {
		v := phi.PhiIncomingFor(bb)
		src := s.val(v)
		s.emit(target.MInstr{Op: target.MMovRR, Rd: s.vals[phi.Num()].carrier,
			Rs1: src, FP: isFPType(phi.Type())})
	}
}

func aluOpFor(op core.Opcode) target.ALUOp {
	switch op {
	case core.OpAdd:
		return target.AAdd
	case core.OpSub:
		return target.ASub
	case core.OpMul:
		return target.AMul
	case core.OpDiv:
		return target.ADiv
	case core.OpRem:
		return target.ARem
	case core.OpAnd:
		return target.AAnd
	case core.OpOr:
		return target.AOr
	case core.OpXor:
		return target.AXor
	case core.OpShl:
		return target.AShl
	case core.OpShr:
		return target.AShr
	}
	panic("codegen: not an ALU op: " + op.String())
}

// immOperand reports whether v is an integer constant the target encodes
// as an ALU, compare or setcc immediate, and its register image: the one
// val would materialize (unsigned constants zero-extended).
func (s *selector) immOperand(v core.Value) (int64, bool) {
	c, ok := v.(*core.Constant)
	if !ok || c.CK != core.ConstInt {
		return 0, false
	}
	imm := constWord(c)
	return imm, s.desc.ImmFits(imm)
}

func (s *selector) selBinary(in *core.Instruction) {
	t := in.Type()
	fp := isFPType(t)
	rd := s.reg(in)
	x := s.val(in.Operand(0))
	alu := aluOpFor(in.Op())
	size := s.sizeOf(t)
	if t.Kind() == core.BoolKind {
		size = 1
	}
	noTrap := (in.Op() == core.OpDiv || in.Op() == core.OpRem) && !in.ExceptionsEnabled
	// Constant right operands — shift counts included — embed as
	// immediates where the target's range allows (vx86 imm32, vsparc
	// simm13), avoiding a materialization.
	if imm, ok := s.immOperand(in.Operand(1)); ok {
		s.emit(target.MInstr{Op: target.MALU, Alu: alu, Rd: rd, Rs1: x,
			HasImm: true, Imm: imm, Size: size, Signed: t.IsSigned(),
			FP: false, NoTrap: noTrap})
		return
	}
	y := s.val(in.Operand(1))
	s.emit(target.MInstr{Op: target.MALU, Alu: alu, Rd: rd, Rs1: x, Rs2: y,
		Size: size, Signed: t.IsSigned(), FP: fp, NoTrap: noTrap})
}

// cmpCond is the condition that tests cmp, and whether its operands are
// compared swapped. The simulated processors order a NaN above every
// number, so that a condition and its complement are exact (invertCond);
// a float setgt or setge therefore compares its operands swapped, as
// setlt or setle, which are false on a NaN as LLVA defines them.
func cmpCond(cmp *core.Instruction) (target.Cond, bool) {
	fp := isFPType(cmp.Operand(0).Type())
	switch cmp.Op() {
	case core.OpSetEQ:
		return target.CondEQ, false
	case core.OpSetNE:
		return target.CondNE, false
	case core.OpSetLT:
		return target.CondLT, false
	case core.OpSetGT:
		if fp {
			return target.CondLT, true
		}
		return target.CondGT, false
	case core.OpSetLE:
		return target.CondLE, false
	default:
		if fp {
			return target.CondLE, true
		}
		return target.CondGE, false
	}
}

// cmpOperands returns an instruction of op comparing cmp's operands, with
// a constant right operand as an immediate where it fits, and the
// condition that tests it.
func (s *selector) cmpOperands(op target.MOp, cmp *core.Instruction) (target.MInstr, target.Cond) {
	ot := cmp.Operand(0).Type()
	m := target.MInstr{Op: op, Rd: target.NoReg, Rs1: s.val(cmp.Operand(0)),
		Signed: ot.IsSigned(), FP: isFPType(ot)}
	if imm, ok := s.immOperand(cmp.Operand(1)); ok {
		m.Rs2, m.HasImm, m.Imm = target.NoReg, true, imm
	} else {
		m.Rs2 = s.val(cmp.Operand(1))
	}
	cond, swap := cmpCond(cmp)
	if swap {
		m.Rs1, m.Rs2 = m.Rs2, m.Rs1
	}
	return m, cond
}

// emitCmp emits the flags-setting compare of cmp's operands (vx86) and
// returns the condition that tests it.
func (s *selector) emitCmp(cmp *core.Instruction) target.Cond {
	m, cond := s.cmpOperands(target.MCmp, cmp)
	s.emit(m)
	return cond
}

func (s *selector) selCompare(in *core.Instruction) {
	rd := s.reg(in)
	if s.desc.HasFlags {
		cond := s.emitCmp(in)
		s.emit(target.MInstr{Op: target.MSetCC, Cnd: cond, Rd: rd})
		return
	}
	m, cond := s.cmpOperands(target.MSetCC, in)
	m.Rd, m.Cnd = rd, cond
	s.emit(m)
}

func (s *selector) selRet(in *core.Instruction) {
	if in.NumOperands() == 1 {
		v := s.val(in.Operand(0))
		if isFPType(in.Operand(0).Type()) {
			s.emit(target.MInstr{Op: target.MMovRR, Rd: s.desc.FPRetReg, Rs1: v, FP: true})
		} else {
			s.emit(target.MInstr{Op: target.MMovRR, Rd: s.desc.RetReg, Rs1: v})
		}
	}
	s.emit(target.MInstr{Op: target.MJmp, Target: int32(len(s.blocks))}) // epilogue
}

func (s *selector) selBr(bb *core.BasicBlock, in *core.Instruction) {
	if in.NumBlocks() == 1 {
		s.emitPhiMoves(bb, in.Block(0))
		s.emit(target.MInstr{Op: target.MJmp, Target: s.block(in.Block(0))})
		return
	}
	// Phi moves for both targets happen before the branch; carriers are
	// per-phi so writing both edges' carriers is harmless only when the
	// edges lead to different blocks. The same block reached on both
	// edges with different phi values cannot be expressed in LLVA (one
	// incoming per predecessor), so this is safe.
	s.emitPhiMoves(bb, in.Block(0))
	if in.Block(1) != in.Block(0) {
		s.emitPhiMoves(bb, in.Block(1))
	}
	tTrue := s.block(in.Block(0))
	tFalse := s.block(in.Block(1))
	cond := in.Operand(0)

	if ci, ok := cond.(*core.Instruction); ok && s.vals[ci.Num()].fused {
		// compare-and-branch fusion (vx86)
		cond := s.emitCmp(ci)
		s.emit(target.MInstr{Op: target.MJcc, Cnd: cond, Target: tTrue})
		s.emit(target.MInstr{Op: target.MJmp, Target: tFalse})
		return
	}
	c := s.val(cond)
	if s.desc.HasFlags {
		s.emit(target.MInstr{Op: target.MCmp, Rs1: c, Rs2: target.NoReg, HasImm: true, Imm: 0})
		s.emit(target.MInstr{Op: target.MJcc, Cnd: target.CondNE, Target: tTrue})
	} else {
		s.emit(target.MInstr{Op: target.MJcc, Cnd: target.CondNE, Rs1: c, Target: tTrue})
	}
	s.emit(target.MInstr{Op: target.MJmp, Target: tFalse})
}

func (s *selector) selMbr(bb *core.BasicBlock, in *core.Instruction) {
	// Phi moves for every distinct successor.
	succs := in.Blocks()
	for i, succ := range succs {
		if !slices.Contains(succs[:i], succ) {
			s.emitPhiMoves(bb, succ)
		}
	}
	v := s.val(in.Operand(0))
	for i, cv := range in.Cases {
		tgt := s.block(in.Block(i + 1))
		// v == case, with a case beyond the immediate range in a register.
		eq := target.MInstr{Op: target.MCmp, Rs1: v, Rs2: target.NoReg, HasImm: true,
			Imm: cv, Signed: true}
		if !s.desc.ImmFits(cv) {
			eq.Rs2, eq.HasImm, eq.Imm = s.newVReg(false), false, 0
			s.synthImm(eq.Rs2, cv)
		}
		if s.desc.HasFlags {
			s.emit(eq)
			s.emit(target.MInstr{Op: target.MJcc, Cnd: target.CondEQ, Target: tgt})
		} else {
			tr := s.newVReg(false)
			eq.Op, eq.Cnd, eq.Rd = target.MSetCC, target.CondEQ, tr
			s.emit(eq)
			s.emit(target.MInstr{Op: target.MJcc, Cnd: target.CondNE, Rs1: tr, Target: tgt})
		}
	}
	s.emit(target.MInstr{Op: target.MJmp, Target: s.block(in.Block(0))})
}
