package machine

import (
	"fmt"
	"math"

	"llva/internal/core"
	"llva/internal/mem"
	"llva/internal/rt"
	"llva/internal/target"
)

// The reference evaluator: the block engine as it was before micro-ops,
// kept as the executable specification the lowering is tested against
// (TestUopMatchesReference). It decodes a block into target.MInstr
// records and hands them one at a time to exec, a switch that reads every
// property of the instruction — target word size, operand width, FP-ness,
// byte order, trap mode, absent registers — when it executes it. Nothing
// here is shared with uop.go or runBlock; what is shared is what neither
// engine specialises: the call and JIT plumbing (callTo, handleJIT,
// intrinsic) and the scalar semantics of ALU ops and conversions, which
// both take from core.Scalar (and its literal-valued test,
// TestScalarPinnedRules, is their oracle).
//
// It differs from the engine PR 22 shipped in one place, on purpose: a
// stack-argument load of an extern call that faults is a TrapError, like
// every other guest memory fault (it was the bare *mem.Fault).
//
// A flag-setting ALU op (SetsFlags) leaves the flags a signed compare of
// its result with zero leaves. With x86 set the reference follows x86's
// own rule instead: every ALU op SetsFlagsFits admits sets the flags so,
// marked or not, and every other integer ALU op (a multiply, a divide, a
// shift by a register), a stack adjustment and a call of any kind
// scramble them. Code that reads only flags its own compare or marked op
// left runs the same in both modes.
type refCPU struct {
	*Machine
	flagEQ, flagLT bool
	x86            bool
}

// refDecoded is one predecoded instruction inside a reference block.
type refDecoded struct {
	in  target.MInstr
	n   int    // encoded length
	pc  uint64 // instruction address (precise trap PCs, relative targets)
	cum uint64 // block cycles through this instruction, inclusive
}

// flagBits is the reference's flags in the engine's representation.
func (c *refCPU) flagBits() (f uint8) {
	if c.flagLT {
		f |= flagLT
	}
	if c.flagEQ {
		f |= flagEQ
	}
	return f
}

func (c *refCPU) reg(r target.Reg) uint64 {
	if r < unifiedRegs {
		return c.regs[r]
	}
	return 0 // NoReg
}

// cmpOperand is the right operand of a compare or setcc: its immediate,
// or its second register.
func (c *refCPU) cmpOperand(in *target.MInstr) uint64 {
	if in.HasImm {
		return uint64(in.Imm)
	}
	return c.reg(in.Rs2)
}

func (c *refCPU) setReg(r target.Reg, v uint64) {
	if r < unifiedRegs {
		c.regs[r] = v
		if c.desc.WordSize == 4 {
			c.regs[0] = 0 // vsparc: r0 is hardwired to zero
		}
	}
}

// build predecodes the straight-line run starting at pc.
func (c *refCPU) build(pc uint64) ([]refDecoded, uint64, error) {
	if pc < c.codeBase || pc >= c.codeEnd {
		return nil, 0, &TrapError{Num: TrapMemoryFault, PC: pc,
			Detail: "instruction fetch outside code segment"}
	}
	view := c.code[:c.codeEnd-c.codeBase]
	var instrs []refDecoded
	at := pc
	var cum uint64
	for len(instrs) < maxBlockInstrs && at < c.codeEnd {
		var in target.MInstr
		n, err := c.desc.DecodeFrom(view, int(at-c.codeBase), &in)
		if err != nil {
			if len(instrs) == 0 {
				return nil, 0, fmt.Errorf("machine: decode at 0x%x: %w", at, err)
			}
			break
		}
		cum += c.desc.Cycles(&in)
		instrs = append(instrs, refDecoded{in: in, n: n, pc: at, cum: cum})
		at += uint64(n)
		if in.Op.Is(target.EndsBlock) {
			break
		}
	}
	return instrs, at, nil
}

// runBlock executes one predecoded block that ends at end.
func (c *refCPU) runBlock(instrs []refDecoded, end uint64) error {
	for i := range instrs {
		dd := &instrs[i]
		c.pc = dd.pc
		c.pendCycles = dd.cum
		jumped, err := c.exec(&dd.in, dd.n)
		if err != nil {
			c.Stats.Instrs += uint64(i + 1)
			c.Stats.Cycles += dd.cum
			c.pendCycles = 0
			if te, ok := err.(*TrapError); ok && te.Mnemonic == "" && te.PC == dd.pc {
				te.Mnemonic = dd.in.String()
			}
			return err
		}
		if !jumped {
			continue
		}
		c.Stats.Instrs += uint64(i + 1)
		c.Stats.Cycles += dd.cum
		c.pendCycles = 0
		switch dd.in.Op {
		case target.MJmp, target.MJcc:
			c.Stats.Branches++
			c.Stats.BranchesTaken++
			c.Stats.Cycles++
		}
		return nil
	}
	last := &instrs[len(instrs)-1]
	c.Stats.Instrs += uint64(len(instrs))
	c.Stats.Cycles += last.cum
	c.pendCycles = 0
	if last.in.Op == target.MJcc {
		c.Stats.Branches++
	}
	c.pc = end
	return nil
}

// exec executes one instruction; it returns true if it set the PC.
func (c *refCPU) exec(in *target.MInstr, size int) (bool, error) {
	d := c.desc
	switch in.Op {
	case target.MNop:
	case target.MMovRR:
		c.setReg(in.Rd, c.reg(in.Rs1))
	case target.MMovRI:
		if d.WordSize == 4 {
			// vsparc set/or-shifted semantics
			chunk := uint64(in.Imm) & 0xffff
			sh := uint(in.Scale) * 16
			if in.HasImm { // or form
				c.setReg(in.Rd, c.reg(in.Rd)|chunk<<sh)
			} else {
				v := uint64(int64(int16(chunk))) << sh
				c.setReg(in.Rd, v)
			}
		} else {
			c.setReg(in.Rd, uint64(in.Imm))
		}
	case target.MLoad:
		addr := c.effAddr(in)
		v, err := c.mem.Load(addr, int(in.Size))
		if err != nil {
			if in.NoTrap {
				c.setReg(in.Rd, 0)
				return false, nil
			}
			return false, &TrapError{Num: TrapMemoryFault, PC: c.pc, Detail: err.Error()}
		}
		if in.FP {
			if in.Size == 4 {
				v = math.Float64bits(float64(math.Float32frombits(uint32(v))))
			}
			c.setReg(in.Rd, v)
		} else {
			c.setReg(in.Rd, refScalar(in).Canon(v))
		}
	case target.MStore:
		addr := c.effAddr(in)
		v := c.reg(in.Rs1)
		if in.FP && in.Size == 4 {
			v = uint64(math.Float32bits(float32(math.Float64frombits(v))))
		}
		if err := c.mem.Store(addr, int(in.Size), v); err != nil {
			if in.NoTrap {
				return false, nil
			}
			return false, &TrapError{Num: TrapMemoryFault, PC: c.pc, Detail: err.Error()}
		}
	case target.MLea:
		c.setReg(in.Rd, c.effAddr(in))
	case target.MALU:
		return false, c.execALU(in)
	case target.MCmp:
		c.compare(c.reg(in.Rs1), c.cmpOperand(in), in.Signed, in.FP)
	case target.MSetCC:
		if !d.HasFlags {
			c.compare(c.reg(in.Rs1), c.cmpOperand(in), in.Signed, in.FP)
		}
		c.setReg(in.Rd, refBoolWord(c.condHolds(in.Cnd)))
	case target.MJmp:
		c.pc = c.relTarget(in)
		return true, nil
	case target.MJcc:
		var take bool
		if d.HasFlags {
			take = c.condHolds(in.Cnd)
		} else {
			c.compare(c.reg(in.Rs1), 0, true, false)
			take = c.condHolds(in.Cnd)
		}
		if take {
			c.pc = c.relTarget(in)
			return true, nil
		}
	case target.MCall:
		c.Stats.Calls++
		c.scramble()
		ret := c.pc + uint64(size)
		tgt := uint64(in.Target) * uint64(d.CallTargetScale)
		return true, c.callTo(tgt, ret)
	case target.MCallInd:
		c.Stats.Calls++
		c.scramble()
		ret := c.pc + uint64(size)
		return true, c.callTo(c.reg(in.Rs1), ret)
	case target.MCallExt:
		c.scramble()
		return c.execCallExt(in)
	case target.MRet:
		if d.StackArgs {
			sp := c.regs[d.SP]
			v, err := c.mem.Load(sp, 8)
			if err != nil {
				return false, &TrapError{Num: TrapMemoryFault, PC: c.pc, Detail: "ret: " + err.Error()}
			}
			c.regs[d.SP] = sp + 8
			c.pc = v
		} else {
			c.pc = c.regs[3] // RA
		}
		if c.trackCalls && len(c.callStack) > 0 {
			c.callStack = c.callStack[:len(c.callStack)-1]
		}
		return true, nil
	case target.MPush:
		sp := c.regs[d.SP] - 8
		v := c.reg(in.Rs1)
		if err := c.mem.Store(sp, 8, v); err != nil {
			return false, &TrapError{Num: TrapMemoryFault, PC: c.pc, Detail: err.Error()}
		}
		c.regs[d.SP] = sp
	case target.MPop:
		sp := c.regs[d.SP]
		v, err := c.mem.Load(sp, 8)
		if err != nil {
			return false, &TrapError{Num: TrapMemoryFault, PC: c.pc, Detail: err.Error()}
		}
		c.setReg(in.Rd, v)
		c.regs[d.SP] = sp + 8
	case target.MCvt:
		c.execCvt(in)
	case target.MInvokePush:
		c.invokeStack = append(c.invokeStack, invokeFrame{
			handler: c.relTarget(in),
			sp:      c.regs[d.SP],
			fp:      c.regs[d.FP],
			depth:   len(c.callStack),
		})
	case target.MInvokePop:
		if len(c.invokeStack) == 0 {
			return false, fmt.Errorf("machine: invoke-pop with empty handler stack")
		}
		c.invokeStack = c.invokeStack[:len(c.invokeStack)-1]
	case target.MUnwind:
		if len(c.invokeStack) == 0 {
			return false, fmt.Errorf("machine: unwind reached the top of the stack")
		}
		fr := c.invokeStack[len(c.invokeStack)-1]
		c.invokeStack = c.invokeStack[:len(c.invokeStack)-1]
		c.regs[d.SP] = fr.sp
		c.regs[d.FP] = fr.fp
		c.pc = fr.handler
		if c.trackCalls && fr.depth <= len(c.callStack) {
			c.callStack = c.callStack[:fr.depth]
		}
		return true, nil
	case target.MTrap:
		return false, &TrapError{Num: uint64(in.Imm), PC: c.pc, Detail: "explicit trap"}
	case target.MAdjSP:
		c.scramble()
		c.regs[d.SP] = c.regs[d.SP] + uint64(in.Imm)
	default:
		return false, fmt.Errorf("machine: unimplemented op %s", in.Op)
	}
	return false, nil
}

func (c *refCPU) relTarget(in *target.MInstr) uint64 {
	return uint64(int64(c.pc) + int64(in.Target)*int64(c.desc.RelBranchScale))
}

func (c *refCPU) effAddr(in *target.MInstr) uint64 {
	a := c.reg(in.Base)
	if in.Index != target.NoReg {
		a += c.reg(in.Index) * uint64(in.Scale)
	}
	return a + uint64(int64(in.Disp))
}

func refBoolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (c *refCPU) compare(a, b uint64, signed, fp bool) {
	switch {
	case fp:
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		c.flagEQ, c.flagLT = x == y, x < y
	case signed:
		c.flagEQ, c.flagLT = int64(a) == int64(b), int64(a) < int64(b)
	default:
		c.flagEQ, c.flagLT = a == b, a < b
	}
}

func (c *refCPU) condHolds(cnd target.Cond) bool {
	switch cnd {
	case target.CondEQ:
		return c.flagEQ
	case target.CondNE:
		return !c.flagEQ
	case target.CondLT:
		return c.flagLT
	case target.CondGE:
		return !c.flagLT
	case target.CondGT:
		return !c.flagLT && !c.flagEQ
	default: // CondLE
		return c.flagLT || c.flagEQ
	}
}

func (c *refCPU) execALU(in *target.MInstr) error {
	a := c.reg(in.Rs1)
	var b uint64
	switch {
	case in.HasImm:
		b = uint64(in.Imm)
	case in.HasMem:
		addr := c.effAddr(in)
		v, err := c.mem.Load(addr, int(in.Size))
		if err != nil {
			return &TrapError{Num: TrapMemoryFault, PC: c.pc, Detail: err.Error()}
		}
		b = refScalar(in).Canon(v)
		if in.FP && in.Size == 4 {
			b = math.Float64bits(float64(math.Float32frombits(uint32(v))))
		}
	default:
		b = c.reg(in.Rs2)
	}

	if in.FP && in.Alu > target.ARem {
		return fmt.Errorf("machine: FP %s", in.Alu)
	}
	r, fault := refScalar(in).Binary(aluOps[in.Alu], a, b)
	switch {
	case fault == core.NoFault:
	case in.NoTrap:
		r = 0
	case fault == core.DivOverflow:
		return &TrapError{Num: TrapDivByZero, PC: c.pc, Detail: "division overflow"}
	default:
		return &TrapError{Num: TrapDivByZero, PC: c.pc, Detail: in.Alu.String() + " by zero"}
	}
	c.setReg(in.Rd, r)
	switch {
	case in.SetsFlags, c.x86 && c.desc.SetsFlagsFits(in):
		c.compare(r, 0, true, false)
	case !in.FP:
		c.scramble()
	}
	return nil
}

// scramble leaves the flags undefined, in x86 mode: inverted, so that a
// branch that read them would go the other way.
func (c *refCPU) scramble() {
	if c.x86 {
		c.flagEQ, c.flagLT = !c.flagEQ, !c.flagLT
	}
}

// run executes the named function to completion on the reference, as
// Machine.Run does on the engine, and returns the integer return
// register. A run that retires more than limit instructions stops with
// an error.
func (c *refCPU) run(entry string, limit uint64) (uint64, error) {
	if err := c.enter(entry, nil); err != nil {
		return 0, err
	}
	type built struct {
		instrs []refDecoded
		end    uint64
	}
	blocks := map[uint64]built{}
	for c.pc != c.haltAddr {
		b, ok := blocks[c.pc]
		if !ok {
			var err error
			if b.instrs, b.end, err = c.build(c.pc); err != nil {
				return 0, err
			}
			blocks[c.pc] = b
		}
		if err := c.runBlock(b.instrs, b.end); err != nil {
			return c.regs[c.desc.RetReg], err
		}
		if c.Stats.Instrs > limit {
			return 0, fmt.Errorf("reference: more than %d instructions", limit)
		}
	}
	return c.regs[c.desc.RetReg], nil
}

// refScalar is the type an instruction's Size, Signed and FP describe.
func refScalar(in *target.MInstr) core.Scalar {
	return core.Scalar{Bits: 8 * uint16(in.Size), Signed: in.Signed, Float: in.FP}
}

func (c *refCPU) execCvt(in *target.MInstr) {
	v := c.reg(in.Rs1)
	bits := 8 * uint16(in.Size)
	switch in.Cvt {
	case target.CvtIntExt:
		c.setReg(in.Rd, core.Scalar{Bits: bits, Signed: in.Signed}.Canon(v))
	case target.CvtIntToF:
		c.setReg(in.Rd, core.Scalar{Bits: 64, Signed: in.Signed}.Cast(core.Scalar{Bits: bits, Float: true}, v))
	case target.CvtFToInt:
		c.setReg(in.Rd, core.Scalar{Bits: 64, Float: true}.Cast(core.Scalar{Bits: bits, Signed: in.Signed}, v))
	case target.CvtFToF:
		c.setReg(in.Rd, core.Scalar{Bits: bits, Float: true}.Canon(v))
	case target.CvtBits:
		c.setReg(in.Rd, v)
	}
}

// execCallExt dispatches an external call: the reserved JIT extern, the
// llva.* intrinsics, or the native runtime.
func (c *refCPU) execCallExt(in *target.MInstr) (bool, error) {
	c.Stats.ExternCalls++
	idx := int(in.Target)
	if idx < 0 || idx >= len(c.externs) {
		return false, fmt.Errorf("machine: bad extern index %d", idx)
	}
	name := c.externs[idx]

	if name == JITExtern {
		return true, c.handleJIT()
	}

	var args []uint64
	if int(in.NArgs) <= len(c.extArgs) {
		args = c.extArgs[:in.NArgs]
	} else {
		args = make([]uint64, in.NArgs)
	}
	if c.desc.StackArgs {
		sp := c.regs[c.desc.SP]
		for i := range args {
			v, err := c.mem.Load(sp+uint64(8*i), 8)
			if err != nil {
				return false, &TrapError{Num: TrapMemoryFault, PC: c.pc, Detail: err.Error()}
			}
			args[i] = v
		}
	} else {
		for i := range args {
			if i < len(c.desc.ArgRegs) {
				args[i] = c.regs[c.desc.ArgRegs[i]]
			}
		}
	}

	var res uint64
	var err error
	if isIntrinsicName(name) {
		res, err = c.intrinsic(name, args)
	} else {
		res, err = c.env.Call(name, args)
	}
	if err != nil {
		if _, isExit := err.(*rt.ExitError); isExit {
			c.regs[c.desc.RetReg] = res
			return false, err
		}
		if flt, isFault := err.(*mem.Fault); isFault {
			return false, &TrapError{Num: TrapMemoryFault, PC: c.pc, Detail: flt.Error()}
		}
		return false, err
	}
	c.regs[c.desc.RetReg] = res
	c.regs[c.desc.FPRetReg] = res
	return false, nil
}
