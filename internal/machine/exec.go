package machine

import (
	"context"
	"fmt"
	"math"

	"llva/internal/core"
	"llva/internal/mem"
	"llva/internal/rt"
	"llva/internal/target"
)

// TrapError reports an unhandled machine exception. Mnemonic, when the
// trap fired mid-block, is the rendered faulting instruction — what was
// *at* the PC, not just its number (the block engine fills it in from
// the predecoded instruction, so it costs nothing to produce).
type TrapError struct {
	Num      uint64
	PC       uint64
	Detail   string
	Mnemonic string
}

func (e *TrapError) Error() string {
	if e.Mnemonic != "" {
		return fmt.Sprintf("machine: trap %d at pc=0x%x [%s]: %s", e.Num, e.PC, e.Mnemonic, e.Detail)
	}
	return fmt.Sprintf("machine: trap %d at pc=0x%x: %s", e.Num, e.PC, e.Detail)
}

// Trap numbers (aligned with the interpreter's).
const (
	TrapMemoryFault = 1
	TrapDivByZero   = 2
	TrapPrivilege   = 3
)

// unifiedRegs is the size of the machine's single register file: the
// Reg encoding already carries bank+index (integer registers in
// [0, 64), FP registers in [FPBase, FPBase+64)), so both banks live in
// one array and the hot loop indexes it directly — no IsFP re-test per
// operand access. Every Reg ≥ unifiedRegs (only NoReg in decoded code)
// is the absent operand.
const unifiedRegs = 128

// reg reads a register from the unified file.
func (mc *Machine) reg(r target.Reg) uint64 {
	if r < unifiedRegs {
		return mc.regs[r]
	}
	return 0 // NoReg
}

func (mc *Machine) setReg(r target.Reg, v uint64) {
	if r < unifiedRegs {
		mc.regs[r] = v
		// r0 is hardwired to zero on vsparc: r0mask is 0 there (and
		// all-ones on vx86, where r0 is a live register), so the
		// invariant regs[0] == 0 is restored branch-free after every
		// write instead of re-testing the destination.
		mc.regs[0] &= mc.r0mask
	}
}

// canon extends a raw value to the canonical register image for a width
// and signedness (identical to the reference interpreter's convention).
func canonInt(size uint8, signed bool, v uint64) uint64 {
	switch size {
	case 1:
		if signed {
			return uint64(int64(int8(v)))
		}
		return uint64(uint8(v))
	case 2:
		if signed {
			return uint64(int64(int16(v)))
		}
		return uint64(uint16(v))
	case 4:
		if signed {
			return uint64(int64(int32(v)))
		}
		return uint64(uint32(v))
	}
	return v
}

func canonFloat(size uint8, bits uint64) uint64 {
	if size == 4 {
		return math.Float64bits(float64(float32(math.Float64frombits(bits))))
	}
	return bits
}

// Run executes the named function to completion and returns the integer
// return register value. It is RunContext with a background context:
// uncancellable, and byte-for-byte the same execution.
func (mc *Machine) Run(entry string, args ...uint64) (uint64, error) {
	return mc.RunContext(context.Background(), entry, args...)
}

// RunContext executes the named function to completion or until ctx is
// done. Cancellation is polled at basic-block boundaries only — a nil
// Done channel (context.Background) costs one pointer compare per
// block, a live one a non-blocking select — so cycle and instruction
// counts of uncancellable runs are identical to Run. On cancellation
// the returned error is a *CancelError matching both ErrCanceled and
// ctx.Err() under errors.Is.
func (mc *Machine) RunContext(ctx context.Context, entry string, args ...uint64) (uint64, error) {
	addr, ok := mc.funcAddr[entry]
	if !ok {
		// Entry may need a lazy stub (JIT mode).
		if mc.module.Function(entry) != nil && !mc.module.Function(entry).IsDeclaration() {
			var err error
			addr, err = mc.makeStub(entry)
			if err != nil {
				return 0, err
			}
		} else {
			return 0, fmt.Errorf("machine: no code for %%%s", entry)
		}
	}
	// A halt address: one word of unreachable code region.
	mc.haltAddr = 8 // inside the null page: execution stops when reached
	d := mc.desc

	// Establish the initial stack and arguments.
	sp := mc.mem.Size() - 64
	mc.regs[d.SP] = sp
	mc.regs[d.FP] = sp
	if d.StackArgs {
		for i := len(args) - 1; i >= 0; i-- {
			sp -= 8
			if err := mc.mem.Store(sp, 8, args[i]); err != nil {
				return 0, err
			}
		}
		sp -= 8
		if err := mc.mem.Store(sp, 8, mc.haltAddr); err != nil {
			return 0, err
		}
		mc.regs[d.SP] = sp
	} else {
		// Distribute arguments per the register convention, consulting
		// the entry function's signature for the FP/integer split
		// (indexed in place — no per-run scratch slice).
		var params []*core.Type
		if f := mc.module.Function(entry); f != nil {
			params = f.Signature().Params()
		}
		intIdx, fpIdx, stackIdx := 0, 0, 0
		for i, a := range args {
			if i < len(params) && params[i].IsFloat() {
				if fpIdx < len(d.FPArgRegs) {
					mc.regs[d.FPArgRegs[fpIdx]] = a
					fpIdx++
					continue
				}
			} else if intIdx < len(d.ArgRegs) {
				mc.regs[d.ArgRegs[intIdx]] = a
				intIdx++
				continue
			}
			// overflow arguments at [SP + 8k], matching the callee's
			// expectation of [FP + 8k]
			if err := mc.mem.Store(mc.regs[d.SP]+uint64(8*stackIdx), 8, a); err != nil {
				return 0, err
			}
			stackIdx++
		}
		mc.regs[3] = mc.haltAddr // RA
	}
	mc.pc = addr

	// Arm the observability hooks for this run: a fresh virtual call
	// stack, and the sampler's first trigger point.
	mc.callStack = mc.callStack[:0]
	if mc.prof != nil {
		mc.profNext = mc.Stats.Instrs + mc.prof.Rate()
	}

	mc.armGas()
	mc.runCtx = ctx
	err := mc.loop()
	mc.runCtx = nil
	mc.recordRunEnd(err)
	if err != nil {
		return mc.regs[d.RetReg], err
	}
	return mc.regs[d.RetReg], nil
}

// FPResult returns the FP return register (for FP-returning entry points).
func (mc *Machine) FPResult() uint64 { return mc.regs[mc.desc.FPRetReg] }

// loop drives the block engine: fetch (or chain to) the block at the
// current PC and execute it whole. The instruction limit and context
// cancellation are checked at block granularity — a block is at most
// maxBlockInstrs long, so the overshoot is bounded and the
// per-instruction compares are gone.
func (mc *Machine) loop() error {
	max := mc.MaxInstrs
	if max == 0 {
		max = 2_000_000_000
	}
	// Done() of an uncancellable context is nil: the poll degenerates to
	// one nil compare per block and execution is bit-identical to a run
	// without a context.
	var done <-chan struct{}
	if mc.runCtx != nil {
		done = mc.runCtx.Done()
	}
	var b *block
	var err error
	for {
		if b == nil {
			if mc.pc == mc.haltAddr {
				return nil
			}
			if b, err = mc.blockFor(mc.pc); err != nil {
				return err
			}
		}
		if done != nil {
			select {
			case <-done:
				return &CancelError{PC: mc.pc, Err: mc.runCtx.Err()}
			default:
			}
		}
		if mc.Stats.Instrs >= max {
			return fmt.Errorf("machine: instruction limit exceeded (%d)", max)
		}
		// Gas is metered on the virtual clock at block boundaries: the
		// block that crossed the budget ran to completion, then the run
		// stops here, before another block starts. Unmetered runs have
		// gasStop at the clock's maximum, so this is one always-false
		// compare. A run that halts on exactly its budget succeeds: the
		// halt check above wins the boundary.
		if mc.Stats.Cycles >= mc.gasStop {
			return &GasError{PC: mc.pc, Budget: mc.gasBudget, Used: mc.Stats.Cycles - mc.gasStart}
		}
		if b, err = mc.runBlock(b); err != nil {
			return err
		}
		// Deterministic virtual-PC sampling at block boundaries: the
		// trigger is the retired-instruction count, never the wall
		// clock, so runs are bit-identical with the profiler on or off
		// — only the host-side sample log differs. Disabled, this is
		// one nil compare per block.
		if mc.prof != nil && mc.Stats.Instrs >= mc.profNext {
			mc.takeSample()
		}
	}
}

// exec executes one instruction; it returns true if it set the PC.
func (mc *Machine) exec(in *target.MInstr, size int) (bool, error) {
	d := mc.desc
	switch in.Op {
	case target.MNop:
	case target.MMovRR:
		mc.setReg(in.Rd, mc.reg(in.Rs1))
	case target.MMovRI:
		if d.WordSize == 4 {
			// vsparc set/or-shifted semantics
			chunk := uint64(in.Imm) & 0xffff
			sh := uint(in.Scale) * 16
			if in.HasImm { // or form
				mc.setReg(in.Rd, mc.reg(in.Rd)|chunk<<sh)
			} else {
				v := uint64(int64(int16(chunk))) << sh
				mc.setReg(in.Rd, v)
			}
		} else {
			mc.setReg(in.Rd, uint64(in.Imm))
		}
	case target.MLoad:
		addr := mc.effAddr(in)
		v, err := mc.mem.Load(addr, int(in.Size))
		if err != nil {
			if in.NoTrap {
				mc.setReg(in.Rd, 0)
				return false, nil
			}
			return false, &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: err.Error()}
		}
		if in.FP {
			if in.Size == 4 {
				v = math.Float64bits(float64(math.Float32frombits(uint32(v))))
			}
			mc.setReg(in.Rd, v)
		} else {
			mc.setReg(in.Rd, canonInt(in.Size, in.Signed, v))
		}
	case target.MStore:
		addr := mc.effAddr(in)
		v := mc.reg(in.Rs1)
		if in.FP && in.Size == 4 {
			v = uint64(math.Float32bits(float32(math.Float64frombits(v))))
		}
		if err := mc.mem.Store(addr, int(in.Size), v); err != nil {
			if in.NoTrap {
				return false, nil
			}
			return false, &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: err.Error()}
		}
	case target.MLea:
		mc.setReg(in.Rd, mc.effAddr(in))
	case target.MALU:
		return false, mc.execALU(in)
	case target.MCmp:
		a := mc.reg(in.Rs1)
		var b uint64
		if in.HasImm {
			b = uint64(in.Imm)
		} else {
			b = mc.reg(in.Rs2)
		}
		mc.compare(a, b, in.Signed, in.FP)
	case target.MSetCC:
		if d.HasFlags {
			mc.setReg(in.Rd, boolWord(mc.condHolds(in.Cnd)))
		} else {
			mc.compare(mc.reg(in.Rs1), mc.reg(in.Rs2), in.Signed, in.FP)
			mc.setReg(in.Rd, boolWord(mc.condHolds(in.Cnd)))
		}
	case target.MJmp:
		mc.pc = mc.relTarget(in, size)
		return true, nil
	case target.MJcc:
		var take bool
		if d.HasFlags {
			take = mc.condHolds(in.Cnd)
		} else {
			mc.compare(mc.reg(in.Rs1), 0, true, false)
			take = mc.condHolds(in.Cnd)
		}
		if take {
			mc.pc = mc.relTarget(in, size)
			return true, nil
		}
	case target.MCall:
		mc.Stats.Calls++
		ret := mc.pc + uint64(size)
		tgt := uint64(in.Target) * uint64(d.CallTargetScale)
		return true, mc.callTo(tgt, ret)
	case target.MCallInd:
		mc.Stats.Calls++
		ret := mc.pc + uint64(size)
		return true, mc.callTo(mc.reg(in.Rs1), ret)
	case target.MCallExt:
		return mc.execCallExt(in, size)
	case target.MRet:
		if d.StackArgs {
			sp := mc.regs[d.SP]
			v, err := mc.mem.Load(sp, 8)
			if err != nil {
				return false, &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: "ret: " + err.Error()}
			}
			mc.regs[d.SP] = sp + 8
			mc.pc = v
		} else {
			mc.pc = mc.regs[3] // RA
		}
		if mc.trackCalls && len(mc.callStack) > 0 {
			mc.callStack = mc.callStack[:len(mc.callStack)-1]
		}
		return true, nil
	case target.MPush:
		sp := mc.regs[d.SP] - 8
		v := mc.reg(in.Rs1)
		if err := mc.mem.Store(sp, 8, v); err != nil {
			return false, &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: err.Error()}
		}
		mc.regs[d.SP] = sp
	case target.MPop:
		sp := mc.regs[d.SP]
		v, err := mc.mem.Load(sp, 8)
		if err != nil {
			return false, &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: err.Error()}
		}
		mc.setReg(in.Rd, v)
		mc.regs[d.SP] = sp + 8
	case target.MCvt:
		mc.execCvt(in)
	case target.MInvokePush:
		mc.invokeStack = append(mc.invokeStack, invokeFrame{
			handler: mc.relTarget(in, size),
			sp:      mc.regs[d.SP],
			fp:      mc.regs[d.FP],
			depth:   len(mc.callStack),
		})
	case target.MInvokePop:
		if len(mc.invokeStack) == 0 {
			return false, fmt.Errorf("machine: invoke-pop with empty handler stack")
		}
		mc.invokeStack = mc.invokeStack[:len(mc.invokeStack)-1]
	case target.MUnwind:
		if len(mc.invokeStack) == 0 {
			return false, fmt.Errorf("machine: unwind reached the top of the stack")
		}
		fr := mc.invokeStack[len(mc.invokeStack)-1]
		mc.invokeStack = mc.invokeStack[:len(mc.invokeStack)-1]
		// Restore only the invoking frame's SP and FP; every other
		// register keeps whatever the unwound callees left in it. Values
		// the handler needs must live in the frame (the translator spills
		// them around invoke).
		mc.regs[d.SP] = fr.sp
		mc.regs[d.FP] = fr.fp
		mc.pc = fr.handler
		// Unwinding pops every virtual frame above the invoking one in
		// a single step; the shadow call stack follows suit.
		if mc.trackCalls && fr.depth <= len(mc.callStack) {
			mc.callStack = mc.callStack[:fr.depth]
		}
		return true, nil
	case target.MTrap:
		return false, &TrapError{Num: uint64(in.Imm), PC: mc.pc, Detail: "explicit trap"}
	case target.MAdjSP:
		mc.regs[d.SP] = mc.regs[d.SP] + uint64(in.Imm)
	default:
		return false, fmt.Errorf("machine: unimplemented op %s", in.Op)
	}
	return false, nil
}

func (mc *Machine) callTo(tgt, ret uint64) error {
	d := mc.desc
	if d.StackArgs {
		sp := mc.regs[d.SP] - 8
		if err := mc.mem.Store(sp, 8, ret); err != nil {
			return &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: "call: " + err.Error()}
		}
		mc.regs[d.SP] = sp
	} else {
		mc.regs[3] = ret // RA
	}
	if mc.trackCalls {
		mc.callStack = append(mc.callStack, ret)
	}
	mc.pc = tgt
	return nil
}

func (mc *Machine) relTarget(in *target.MInstr, size int) uint64 {
	return uint64(int64(mc.pc) + int64(in.Target)*int64(mc.desc.RelBranchScale))
}

func (mc *Machine) effAddr(in *target.MInstr) uint64 {
	a := mc.reg(in.Base)
	if in.Index != target.NoReg {
		a += mc.reg(in.Index) * uint64(in.Scale)
	}
	return a + uint64(int64(in.Disp))
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (mc *Machine) compare(a, b uint64, signed, fp bool) {
	switch {
	case fp:
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		mc.flagEQ, mc.flagLT = x == y, x < y
	case signed:
		mc.flagEQ, mc.flagLT = int64(a) == int64(b), int64(a) < int64(b)
	default:
		mc.flagEQ, mc.flagLT = a == b, a < b
	}
}

func (mc *Machine) condHolds(c target.Cond) bool {
	switch c {
	case target.CondEQ:
		return mc.flagEQ
	case target.CondNE:
		return !mc.flagEQ
	case target.CondLT:
		return mc.flagLT
	case target.CondGE:
		return !mc.flagLT
	case target.CondGT:
		return !mc.flagLT && !mc.flagEQ
	default: // CondLE
		return mc.flagLT || mc.flagEQ
	}
}

func (mc *Machine) execALU(in *target.MInstr) error {
	a := mc.reg(in.Rs1)
	var b uint64
	switch {
	case in.HasImm:
		b = uint64(in.Imm)
	case in.HasMem:
		addr := mc.effAddr(in)
		v, err := mc.mem.Load(addr, int(in.Size))
		if err != nil {
			return &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: err.Error()}
		}
		b = canonInt(in.Size, in.Signed, v)
		if in.FP {
			if in.Size == 4 {
				b = math.Float64bits(float64(math.Float32frombits(uint32(v))))
			} else {
				b = v
			}
		}
	default:
		b = mc.reg(in.Rs2)
	}

	if in.FP {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		var r float64
		switch in.Alu {
		case target.AAdd:
			r = x + y
		case target.ASub:
			r = x - y
		case target.AMul:
			r = x * y
		case target.ADiv:
			r = x / y
		case target.ARem:
			r = math.Mod(x, y)
		default:
			return fmt.Errorf("machine: FP %s", in.Alu)
		}
		mc.setReg(in.Rd, canonFloat(in.Size, math.Float64bits(r)))
		return nil
	}

	size, signed := in.Size, in.Signed
	var r uint64
	switch in.Alu {
	case target.AAdd:
		r = a + b
	case target.ASub:
		r = a - b
	case target.AMul:
		r = a * b
	case target.ADiv, target.ARem:
		if truncBits(size, b) == 0 {
			if in.NoTrap {
				mc.setReg(in.Rd, 0)
				return nil
			}
			return &TrapError{Num: TrapDivByZero, PC: mc.pc, Detail: in.Alu.String() + " by zero"}
		}
		if signed {
			x, y := int64(a), int64(b)
			if x == math.MinInt64 && y == -1 {
				if in.NoTrap {
					mc.setReg(in.Rd, 0)
					return nil
				}
				return &TrapError{Num: TrapDivByZero, PC: mc.pc, Detail: "division overflow"}
			}
			if in.Alu == target.ADiv {
				r = uint64(x / y)
			} else {
				r = uint64(x % y)
			}
		} else {
			x, y := truncBits(size, a), truncBits(size, b)
			if in.Alu == target.ADiv {
				r = x / y
			} else {
				r = x % y
			}
		}
	case target.AAnd:
		r = a & b
	case target.AOr:
		r = a | b
	case target.AXor:
		r = a ^ b
	case target.AShl, target.AShr:
		bits := uint64(size) * 8
		s := b & 0xff
		if s >= bits {
			if in.Alu == target.AShr && signed && int64(a) < 0 {
				mc.setReg(in.Rd, ^uint64(0))
				return nil
			}
			mc.setReg(in.Rd, 0)
			return nil
		}
		if in.Alu == target.AShl {
			r = a << s
		} else if signed {
			r = uint64(int64(a) >> s)
		} else {
			r = truncBits(size, a) >> s
		}
	}
	mc.setReg(in.Rd, canonInt(size, signed, r))
	return nil
}

func truncBits(size uint8, v uint64) uint64 {
	switch size {
	case 1:
		return v & 0xff
	case 2:
		return v & 0xffff
	case 4:
		return v & 0xffffffff
	}
	return v
}

func (mc *Machine) execCvt(in *target.MInstr) {
	v := mc.reg(in.Rs1)
	switch in.Cvt {
	case target.CvtIntExt:
		mc.setReg(in.Rd, canonInt(in.Size, in.Signed, v))
	case target.CvtIntToF:
		var f float64
		if in.Signed {
			f = float64(int64(v))
		} else {
			f = float64(v)
		}
		mc.setReg(in.Rd, canonFloat(in.Size, math.Float64bits(f)))
	case target.CvtFToInt:
		f := math.Float64frombits(v)
		var r uint64
		if math.IsNaN(f) {
			r = 0
		} else if in.Signed || f < 0 {
			r = uint64(int64(clampF(f)))
		} else {
			r = clampFU(f)
		}
		mc.setReg(in.Rd, canonInt(in.Size, in.Signed, r))
	case target.CvtFToF:
		mc.setReg(in.Rd, canonFloat(in.Size, v))
	case target.CvtBits:
		mc.setReg(in.Rd, v)
	}
}

func clampF(f float64) float64 {
	if f > math.MaxInt64 {
		return math.MaxInt64
	}
	if f < math.MinInt64 {
		return math.MinInt64
	}
	return f
}

func clampFU(f float64) uint64 {
	if f >= math.MaxUint64 {
		return math.MaxUint64
	}
	if f < 0 {
		return 0
	}
	return uint64(f)
}

// execCallExt dispatches an external call: the reserved JIT extern, the
// llva.* intrinsics, or the native runtime.
func (mc *Machine) execCallExt(in *target.MInstr, size int) (bool, error) {
	mc.Stats.ExternCalls++
	idx := int(in.Target)
	if idx < 0 || idx >= len(mc.externs) {
		return false, fmt.Errorf("machine: bad extern index %d", idx)
	}
	name := mc.externs[idx]

	if name == JITExtern {
		return true, mc.handleJIT()
	}

	// Arguments are marshalled into the machine's persistent buffer:
	// extern calls are steady-state (print, malloc, math) and must not
	// allocate per call. Fn implementations receive a view and do not
	// retain it.
	var args []uint64
	if int(in.NArgs) <= len(mc.extArgs) {
		args = mc.extArgs[:in.NArgs]
	} else {
		args = make([]uint64, in.NArgs)
	}
	if mc.desc.StackArgs {
		sp := mc.regs[mc.desc.SP]
		for i := range args {
			v, err := mc.mem.Load(sp+uint64(8*i), 8)
			if err != nil {
				return false, err
			}
			args[i] = v
		}
	} else {
		for i := range args {
			if i < len(mc.desc.ArgRegs) {
				args[i] = mc.regs[mc.desc.ArgRegs[i]]
			}
		}
	}

	var res uint64
	var err error
	if isIntrinsicName(name) {
		res, err = mc.intrinsic(name, args)
	} else {
		res, err = mc.env.Call(name, args)
	}
	if err != nil {
		if _, isExit := err.(*rt.ExitError); isExit {
			mc.regs[mc.desc.RetReg] = res
			return false, err
		}
		if flt, isFault := err.(*mem.Fault); isFault {
			return false, &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: flt.Error()}
		}
		return false, err
	}
	mc.regs[mc.desc.RetReg] = res
	mc.regs[mc.desc.FPRetReg] = res
	return false, nil
}

func isIntrinsicName(name string) bool {
	return len(name) > 5 && name[:5] == "llva."
}

// handleJIT services a lazy translation stub: the function index is in
// the first scratch register; control transfers to the (possibly freshly
// translated) code.
func (mc *Machine) handleJIT() error {
	id := int(mc.regs[mc.desc.Scratch[0]])
	if id < 0 || id >= len(mc.stubNames) {
		return fmt.Errorf("machine: bad JIT stub id %d", id)
	}
	name := mc.stubNames[id]
	addr := mc.funcAddr[name]
	if addr == mc.stubAddr[id] {
		// Not yet translated: ask the execution manager.
		if mc.OnJIT == nil {
			return fmt.Errorf("machine: %%%s is not translated and no JIT is attached", name)
		}
		mc.Stats.JITRequests++
		a, err := mc.OnJIT(name)
		if err != nil {
			return err
		}
		addr = a
	}
	mc.pc = addr
	return nil
}

// privilegedIntrinsics names the llva.* intrinsics that require the
// privileged bit (hoisted to package scope: the per-call map literal
// used to allocate on every intrinsic dispatch).
var privilegedIntrinsics = map[string]bool{
	"llva.priv.set": true, "llva.trap.register": true,
	"llva.storage.register": true,
}

// intrinsic implements the machine-level llva.* intrinsics; unknown ones
// go to the OnIntrinsic hook (the execution manager).
func (mc *Machine) intrinsic(name string, args []uint64) (uint64, error) {
	if privilegedIntrinsics[name] && !mc.privileged {
		return 0, &TrapError{Num: TrapPrivilege, PC: mc.pc,
			Detail: "privileged intrinsic " + name}
	}
	switch name {
	case "llva.priv.get":
		return boolWord(mc.privileged), nil
	case "llva.priv.set":
		mc.privileged = len(args) > 0 && args[0]&1 != 0
		return 0, nil
	case "llva.stack.depth":
		return mc.Stats.Calls, nil
	case "llva.trap.raise":
		n := uint64(0)
		if len(args) > 0 {
			n = args[0]
		}
		return 0, &TrapError{Num: n, PC: mc.pc, Detail: "explicit trap"}
	}
	if mc.OnIntrinsic != nil {
		return mc.OnIntrinsic(name, args)
	}
	return 0, fmt.Errorf("machine: unhandled intrinsic %%%s", name)
}

// SetPrivileged sets the processor's privileged bit.
func (mc *Machine) SetPrivileged(p bool) { mc.privileged = p }
