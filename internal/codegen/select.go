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

	// entry holds the constants built once for the whole function
	// (materialize), spliced in after the entry block's parameter moves,
	// which end at paramEnd.
	entry    []target.MInstr
	paramEnd int

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
	fused     bool // a comparison folded into its block's branch
	// quot is, for a rem, the div of its operands whose quotient it
	// reuses (pairDivRem); divHere selects that div at the rem, and early
	// marks a div so selected ahead of its own place. divisor is the
	// register of a binary op's right operand, 0 for an immediate: a
	// div's divisor, which its rem multiplies by.
	quot           *core.Instruction
	divHere, early bool
	divisor        target.Reg
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
	// The save area below FP has a slot for every callee-saved register:
	// alloca offsets are assigned during selection, before allocation
	// knows which registers the function uses. vsparc keeps the return
	// address and the caller's FP at its top; vx86 keeps them above FP
	// (pushed by call and the prologue).
	s.saveArea = int32(8 * (len(t.desc.Allocatable) + len(t.desc.FPAllocatable)))
	if !t.desc.StackArgs {
		s.saveArea += 16
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
	s.entry = ws.entry[:0]
	if ws.consts == nil {
		ws.consts = make(map[constKey]target.Reg)
	}
	clear(ws.consts)
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
	// Identify comparisons fused into their block's branch: on a target
	// with flags (vx86) every one, into compare-and-branch; on one
	// without (vsparc) a compare with zero, into a branch on the register
	// (zeroBranch).
	for _, bb := range f.Blocks {
		term := bb.Terminator()
		if term == nil || term.Op() != core.OpBr || term.NumBlocks() != 2 {
			continue
		}
		cmp, ok := term.Operand(0).(*core.Instruction)
		if !ok || !cmp.Op().IsComparison() || cmp.Parent() != bb || cmp.NumUses() != 1 {
			continue
		}
		if s.desc.HasFlags {
			s.vals[cmp.Num()].fused = true
		} else if _, _, ok := zeroBranch(cmp); ok {
			s.vals[cmp.Num()].fused = true
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
			s.paramEnd = len(s.code)
		}
		// Phi headers: copy carriers into phi registers.
		for _, phi := range bb.Phis() {
			v := s.vals[phi.Num()]
			s.emit(target.MInstr{Op: target.MMovRR, Rd: v.reg,
				Rs1: v.carrier, FP: isFPType(phi.Type())})
		}
		s.pairDivRem(bb)
		for _, in := range bb.Instructions() {
			s.selectInstr(bb, in)
		}
	}
	s.blockStart[len(f.Blocks)] = len(s.code) // epilogue label
	if n := len(s.entry); n > 0 {
		s.code = slices.Insert(s.code, s.paramEnd, s.entry...)
		for bi := 1; bi < len(s.blockStart); bi++ {
			s.blockStart[bi] += n
		}
	}
	ws.blockIdx, ws.vals, ws.vFP, ws.argRegs = s.blockIdx, s.vals, s.vFP, s.argRegs
	ws.code, ws.start, ws.entry = s.code, s.blockStart, s.entry
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

// constKey names what materialize builds: a symbol's address, or a
// scalar constant's canonical word, moved into an FP register if fp.
type constKey struct {
	sym  string
	word uint64
	fp   bool
}

// materialize returns a register holding k. A materialization of one
// instruction is emitted at the use. A longer one — a vsparc symbol
// address or wide integer, an FP constant on either target — is built
// once, after the entry block's parameter moves, and its register serves
// every use in the function.
func (s *selector) materialize(k constKey) target.Reg {
	if r, ok := s.ws.consts[k]; ok {
		return r
	}
	at := len(s.code)
	r := s.newVReg(false)
	if k.sym != "" {
		s.synthSym(r, k.sym)
	} else {
		s.synthImm(r, int64(k.word))
	}
	if k.fp {
		fr := s.newVReg(true)
		s.emit(target.MInstr{Op: target.MCvt, Cvt: target.CvtBits,
			Rd: fr, Rs1: r, FP: true, Size: 8})
		r = fr
	}
	if len(s.code)-at > 1 {
		s.entry = append(s.entry, s.code[at:]...)
		s.code = s.code[:at]
		s.ws.consts[k] = r
	}
	return r
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
			return s.materialize(constKey{sym: x.Ref.Name()})
		}
		return s.materialize(constKey{word: uint64(constWord(x)), fp: x.Type().IsFloat()})
	case *core.GlobalVariable:
		return s.materialize(constKey{sym: x.Name()})
	case *core.Function:
		return s.materialize(constKey{sym: x.Name()})
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
		if !s.vals[in.Num()].early {
			s.selBinary(in)
		}
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
			// Multi-use or non-fused GEPs compute an address value. One
			// whose uses in its block all read [base + index] (gepShift)
			// shifts its index here, once.
			if idx, k, local, _ := s.gepShift(in); local {
				if k > 0 {
					s.emitALUImm(target.AShl, s.reg(in), s.val(idx), int64(k))
				}
			} else if !s.gepFoldable(in) {
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

// pairDivRem pairs each integer rem of bb with a div of the same
// operands in bb, so that the rem costs a multiply and a subtract,
// x − (x/y)·y, instead of a second divide: by core.Scalar the two agree
// modulo 2^w at every width w whenever the divide does not fault. It
// pairs them in two cases:
//   - the div comes first and traps (exceptions enabled): a faulting
//     divisor stops execution there, before the rem;
//   - y is a constant that cannot fault, neither 0 nor, at 64-bit signed
//     width, -1: then a div after the rem is selected at the rem.
func (s *selector) pairDivRem(bb *core.BasicBlock) {
	for ri, rem := range bb.Instructions() {
		if rem.Op() != core.OpRem || !rem.Type().IsInteger() {
			continue
		}
		x, y := rem.Operand(0), rem.Operand(1)
		safe := s.divisorCannotFault(y)
		for di, div := range bb.Instructions() {
			if div.Op() != core.OpDiv || div.Type() != rem.Type() ||
				!sameOperand(div.Operand(0), x) || !sameOperand(div.Operand(1), y) {
				continue
			}
			if di < ri && (div.ExceptionsEnabled || safe) {
				s.vals[rem.Num()].quot = div
			} else if di > ri && safe {
				s.vals[rem.Num()].quot = div
				if dv := &s.vals[div.Num()]; !dv.early {
					dv.early = true
					s.vals[rem.Num()].divHere = true
				}
			}
			break
		}
	}
}

// divisorCannotFault reports whether y is an integer constant no div or
// rem faults on.
func (s *selector) divisorCannotFault(y core.Value) bool {
	c, ok := y.(*core.Constant)
	if !ok || c.CK != core.ConstInt {
		return false
	}
	w := constWord(c)
	return w != 0 && !(w == -1 && c.Type().IsSigned() && s.sizeOf(c.Type()) == 8)
}

// sameOperand reports whether a and b are one value: the same SSA value,
// or equal constants (constants are not interned).
func sameOperand(a, b core.Value) bool {
	if a == b {
		return true
	}
	ca, ok1 := a.(*core.Constant)
	cb, ok2 := b.(*core.Constant)
	return ok1 && ok2 && ca.Key() == cb.Key()
}

// selRemFromQuot selects rem as x − q·y, q the quotient of its paired
// div (pairDivRem).
func (s *selector) selRemFromQuot(rem *core.Instruction) {
	v := s.vals[rem.Num()]
	if v.divHere {
		s.selBinary(v.quot)
	}
	t := rem.Type()
	size, signed := s.sizeOf(t), t.IsSigned()
	prod := s.newVReg(false)
	m := target.MInstr{Op: target.MALU, Alu: target.AMul, Rd: prod, Rs1: s.reg(v.quot),
		Size: size, Signed: signed}
	if imm, ok := s.immOperand(rem.Operand(1)); ok {
		m.HasImm, m.Imm = true, imm
	} else {
		m.Rs2 = s.vals[v.quot.Num()].divisor
	}
	s.emit(m)
	s.emitALU(target.ASub, s.reg(rem), s.val(rem.Operand(0)), prod, size, signed, false)
}

func (s *selector) selBinary(in *core.Instruction) {
	if s.vals[in.Num()].quot != nil {
		s.selRemFromQuot(in)
		return
	}
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
	s.vals[in.Num()].divisor = y
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
	m := target.MInstr{Op: op, Rs1: s.val(cmp.Operand(0)), Signed: ot.IsSigned(), FP: isFPType(ot)}
	if imm, ok := s.immOperand(cmp.Operand(1)); ok {
		m.HasImm, m.Imm = true, imm
	} else {
		m.Rs2 = s.val(cmp.Operand(1))
	}
	cond, swap := cmpCond(cmp)
	if swap {
		m.Rs1, m.Rs2 = m.Rs2, m.Rs1
	}
	return m, cond
}

// zeroBranch reports whether cmp compares an integer, pointer or bool
// with the zero of its type (0, null, false) in a form a target without
// flags branches on directly, as SPARC V9's BPr (brz, brnz, brlz, brgez,
// brgz, brlez) tests a register against zero: it returns the operand
// compared and the condition. A zero on the left is swapped to the right
// first. A signed operand takes all six conditions; an unsigned one, a
// pointer or a bool only eq and ne, with >u 0 as ne and <=u 0 as eq (<u 0
// and >=u 0 keep their setcc).
func zeroBranch(cmp *core.Instruction) (core.Value, target.Cond, bool) {
	x, z := cmp.Operand(0), cmp.Operand(1)
	if x.Type().IsFloat() {
		return nil, 0, false
	}
	cond, _ := cmpCond(cmp)
	if !isZero(z) {
		if !isZero(x) {
			return nil, 0, false
		}
		x = z
		cond = swapCond(cond)
	}
	if x.Type().IsSigned() {
		return x, cond, true
	}
	switch cond {
	case target.CondEQ, target.CondLE:
		return x, target.CondEQ, true
	case target.CondNE, target.CondGT:
		return x, target.CondNE, true
	}
	return nil, 0, false
}

// isZero reports whether v is the zero of an integer, pointer or bool
// type.
func isZero(v core.Value) bool {
	c, ok := v.(*core.Constant)
	if !ok {
		return false
	}
	switch c.CK {
	case core.ConstInt, core.ConstBool, core.ConstNull, core.ConstZero:
		w, _ := c.Word()
		return w == 0
	}
	return false
}

// swapCond is the condition that holds of (y, x) when c holds of (x, y).
func swapCond(c target.Cond) target.Cond {
	switch c {
	case target.CondLT:
		return target.CondGT
	case target.CondGT:
		return target.CondLT
	case target.CondLE:
		return target.CondGE
	case target.CondGE:
		return target.CondLE
	}
	return c
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
		s.emit(target.MInstr{Op: target.MSetCC, Cnd: cond, Rd: rd,
			Rs1: target.NoReg, Rs2: target.NoReg})
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
		if s.desc.HasFlags {
			// compare-and-branch fusion (vx86)
			cond := s.emitCmp(ci)
			s.emit(target.MInstr{Op: target.MJcc, Cnd: cond, Rs1: target.NoReg, Target: tTrue})
		} else {
			// branch on register (vsparc, BPr)
			x, cond, _ := zeroBranch(ci)
			s.emit(target.MInstr{Op: target.MJcc, Cnd: cond, Rs1: s.val(x), Target: tTrue})
		}
		s.emit(target.MInstr{Op: target.MJmp, Target: tFalse})
		return
	}
	c := s.val(cond)
	if s.desc.HasFlags {
		s.emit(target.MInstr{Op: target.MCmp, Rs1: c, HasImm: true, Imm: 0})
		s.emit(target.MInstr{Op: target.MJcc, Cnd: target.CondNE, Rs1: target.NoReg, Target: tTrue})
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
		eq := target.MInstr{Op: target.MCmp, Rs1: v, HasImm: true, Imm: cv, Signed: true}
		if !s.desc.ImmFits(cv) {
			eq.Rs2, eq.HasImm, eq.Imm = s.newVReg(false), false, 0
			s.synthImm(eq.Rs2, cv)
		}
		if s.desc.HasFlags {
			s.emit(eq)
			s.emit(target.MInstr{Op: target.MJcc, Cnd: target.CondEQ, Rs1: target.NoReg, Target: tgt})
		} else {
			tr := s.newVReg(false)
			eq.Op, eq.Cnd, eq.Rd = target.MSetCC, target.CondEQ, tr
			s.emit(eq)
			s.emit(target.MInstr{Op: target.MJcc, Cnd: target.CondNE, Rs1: tr, Target: tgt})
		}
	}
	s.emit(target.MInstr{Op: target.MJmp, Target: s.block(in.Block(0))})
}
