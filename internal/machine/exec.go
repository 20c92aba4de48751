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
// *at* the PC, not just its number (the block engine decodes the PC again
// to fill it in: blocks keep no instruction, and a trap is a cold path).
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

// unifiedRegs is the size of the machine's architectural register file:
// the Reg encoding already carries bank+index (integer registers in
// [0, 64), FP registers in [FPBase, FPBase+64)), so both banks live in
// one array and the hot loop indexes it directly — no IsFP re-test per
// operand access. Every Reg ≥ unifiedRegs is the absent operand; uop.go
// gives it a slot.
const unifiedRegs = 128

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
		mc.profTaken = mc.Stats.BranchesTaken
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
// current PC and execute it whole. Gas and context cancellation are
// checked at block granularity — a block is at most maxBlockInstrs long,
// so the overshoot is bounded and the per-instruction compares are gone.
func (mc *Machine) loop() error {
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
		// Gas is metered on the virtual clock at block boundaries: the
		// block that crossed the budget ran to completion, then the run
		// stops here, before another block starts. A run that halts on
		// exactly its budget succeeds: the halt check above wins the
		// boundary.
		if mc.Stats.Cycles >= mc.gasStop {
			return &GasError{PC: mc.pc, Budget: mc.gasStop - mc.gasStart, Used: mc.Stats.Cycles - mc.gasStart}
		}
		// Profiling: count the block's entry, and take a deterministic
		// virtual-PC sample at this block boundary when one is due. The
		// trigger is the retired-instruction count, never the wall clock,
		// so runs are bit-identical with the profiler on or off — only
		// the host-side profile differs. Disabled, this is one nil
		// compare per block.
		if mc.prof != nil {
			b.hits++
			if mc.Stats.Instrs >= mc.profNext {
				mc.takeSample()
			}
		}
		if b, err = mc.runBlock(b); err != nil {
			return err
		}
	}
}

// general executes the ops runBlock does not handle inline, and the loads
// and stores it does whenever their inlined accessor declined (a fast load
// is the general one with its size and signedness fixed); none of them
// redirects the PC. mc.pc is the instruction's.
func (mc *Machine) general(u *uop) error {
	d := mc.desc
	r := &mc.regs
	switch u.op {
	case uLdG, uLd8U, uLd8S, uLd16U, uLd16S, uLd32U, uLd32S, uLd64:
		v, err := mc.mem.Load(u.ea(r), int(u.size()))
		if err != nil {
			return mc.accessFault(u, err)
		}
		if u.fp() {
			if u.size() == 4 {
				v = math.Float64bits(float64(math.Float32frombits(uint32(v))))
			}
			r[u.rd] = v
		} else {
			r[u.rd] = u.scalar().Canon(v)
		}
	case uStG, uSt8, uSt16, uSt32, uSt64:
		v := r[u.ra]
		if u.fp() && u.size() == 4 {
			v = uint64(math.Float32bits(float32(math.Float64frombits(v))))
		}
		if err := mc.mem.Store(u.ea(r), int(u.size()), v); err != nil {
			return mc.accessFault(u, err)
		}
	case uALU:
		return mc.alu(u, r[u.ra], r[u.rb]+u.imm)
	case uALUM:
		v, err := mc.mem.Load(u.ea(r), int(u.size()))
		if err != nil {
			return &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: err.Error()}
		}
		b := u.scalar().Canon(v)
		if u.fp() && u.size() == 4 {
			b = math.Float64bits(float64(math.Float32frombits(uint32(v))))
		}
		return mc.alu(u, r[u.ra], b)
	case uCvt:
		mc.cvt(u)
	case uPush:
		sp := r[d.SP] - 8
		if err := mc.mem.Store(sp, 8, r[u.ra]); err != nil {
			return &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: err.Error()}
		}
		r[d.SP] = sp
	case uPop:
		sp := r[d.SP]
		v, err := mc.mem.Load(sp, 8)
		if err != nil {
			return &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: err.Error()}
		}
		r[u.rd] = v
		r[d.SP] = sp + 8
	case uInvokePush:
		mc.invokeStack = append(mc.invokeStack, invokeFrame{
			handler: u.imm,
			sp:      r[d.SP],
			fp:      r[d.FP],
			depth:   len(mc.callStack),
		})
	case uInvokePop:
		if len(mc.invokeStack) == 0 {
			return fmt.Errorf("machine: invoke-pop with empty handler stack")
		}
		mc.invokeStack = mc.invokeStack[:len(mc.invokeStack)-1]
	case uTrap:
		return &TrapError{Num: u.imm, PC: mc.pc, Detail: "explicit trap"}
	default:
		return fmt.Errorf("machine: unimplemented micro-op %d", u.op)
	}
	return nil
}

// accessFault is the outcome of a load or store that faulted with err: a
// NoTrap access (a speculative one) reads as zero or writes nothing and
// execution goes on, any other traps.
func (mc *Machine) accessFault(u *uop, err error) error {
	if u.noTrap() {
		mc.regs[u.rd] = 0 // a store's rd is the sink
		return nil
	}
	return &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: err.Error()}
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

// ret returns from the current function.
func (mc *Machine) ret() error {
	d := mc.desc
	if d.StackArgs {
		sp := mc.regs[d.SP]
		v, err := mc.mem.Load(sp, 8)
		if err != nil {
			return &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: "ret: " + err.Error()}
		}
		mc.regs[d.SP] = sp + 8
		mc.pc = v
	} else {
		mc.pc = mc.regs[3] // RA
	}
	if mc.trackCalls && len(mc.callStack) > 0 {
		mc.callStack = mc.callStack[:len(mc.callStack)-1]
	}
	return nil
}

// unwind transfers control to the innermost invoke's handler.
func (mc *Machine) unwind() error {
	d := mc.desc
	if len(mc.invokeStack) == 0 {
		return fmt.Errorf("machine: unwind reached the top of the stack")
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
	return nil
}

// The three compares, as the flag bits they leave.
func cmpSigned(a, b uint64) (flags uint8) {
	if int64(a) < int64(b) {
		flags = flagLT
	}
	if a == b {
		flags |= flagEQ
	}
	return flags
}

func cmpUnsigned(a, b uint64) (flags uint8) {
	if a < b {
		flags = flagLT
	}
	if a == b {
		flags |= flagEQ
	}
	return flags
}

func cmpFloat(a, b uint64) (flags uint8) {
	x, y := math.Float64frombits(a), math.Float64frombits(b)
	if x < y {
		flags = flagLT
	}
	if x == y {
		flags |= flagEQ
	}
	return flags
}

// aluOps maps each machine ALU op to the LLVA opcode it computes.
var aluOps = [...]core.Opcode{
	target.AAdd: core.OpAdd, target.ASub: core.OpSub, target.AMul: core.OpMul,
	target.ADiv: core.OpDiv, target.ARem: core.OpRem, target.AAnd: core.OpAnd,
	target.AOr: core.OpOr, target.AXor: core.OpXor, target.AShl: core.OpShl,
	target.AShr: core.OpShr,
}

// scalar is the type a sized op computes on.
func (u *uop) scalar() core.Scalar {
	return core.Scalar{Bits: 8 * uint16(u.size()), Signed: u.signed(), Float: u.fp()}
}

// alu executes the ALU forms without an op of their own.
func (mc *Machine) alu(u *uop, a, b uint64) error {
	op := target.ALUOp(u.k)
	if u.fp() && op > target.ARem {
		return fmt.Errorf("machine: FP %s", op)
	}
	r, fault := u.scalar().Binary(aluOps[op], a, b)
	switch {
	case fault == core.NoFault:
	case u.noTrap():
		r = 0
	case fault == core.DivOverflow:
		return &TrapError{Num: TrapDivByZero, PC: mc.pc, Detail: "division overflow"}
	default:
		return &TrapError{Num: TrapDivByZero, PC: mc.pc, Detail: op.String() + " by zero"}
	}
	mc.regs[u.rd] = r
	return nil
}

// float64Scalar is a float register's word, whatever its width: the
// canonical form of both is the float64 bits.
var float64Scalar = core.Scalar{Bits: 64, Float: true}

// cvt executes the conversions without an op of their own. Size is the
// destination's; so is Signed, except in an integer-to-float conversion,
// where it is the source's.
func (mc *Machine) cvt(u *uop) {
	v := mc.regs[u.ra]
	bits, signed := 8*uint16(u.size()), u.signed()
	var r uint64
	switch target.CvtOp(u.k) {
	case target.CvtIntExt:
		r = core.Scalar{Bits: bits, Signed: signed}.Canon(v)
	case target.CvtIntToF:
		r = core.Scalar{Bits: 64, Signed: signed}.Cast(core.Scalar{Bits: bits, Float: true}, v)
	case target.CvtFToInt:
		r = float64Scalar.Cast(core.Scalar{Bits: bits, Signed: signed}, v)
	case target.CvtFToF:
		r = core.Scalar{Bits: bits, Float: true}.Canon(v)
	case target.CvtBits:
		r = v
	}
	mc.regs[u.rd] = r
}

// binding is how callExt dispatches one entry of the extern table,
// resolved the first time the entry is called so that a call costs no
// string compare and no map lookup.
type binding struct {
	kind bindKind
	fn   rt.Fn // of a bindNative
}

type bindKind uint8

const (
	// unbound is an entry not resolved yet, or one the runtime does not
	// know: env.Call reports that, by name, on every call.
	unbound bindKind = iota
	bindJIT
	bindIntrinsic
	bindNative
)

// bindExtern resolves extern idx. A Register on the environment since the
// table's resolutions were made unbinds them all first: a name may mean
// another function now.
func (mc *Machine) bindExtern(idx int) {
	if n := mc.env.Registrations(); n != mc.boundAt {
		clear(mc.bound)
		mc.boundAt = n
	}
	b, name := &mc.bound[idx], mc.externs[idx]
	switch {
	case name == JITExtern:
		b.kind = bindJIT
	case isIntrinsicName(name):
		b.kind = bindIntrinsic
	default:
		if b.fn = mc.env.Lookup(name); b.fn != nil {
			b.kind = bindNative
		}
	}
}

// callExt dispatches an external call: the reserved JIT extern, the
// llva.* intrinsics, or the native runtime. It reports whether it set the
// PC, which only the JIT extern does.
func (mc *Machine) callExt(u *uop) (bool, error) {
	mc.Stats.ExternCalls++
	idx, nargs := int(int64(u.imm)), int(u.k)
	if idx < 0 || idx >= len(mc.externs) {
		return false, fmt.Errorf("machine: bad extern index %d", idx)
	}
	if mc.bound[idx].kind == unbound || mc.boundAt != mc.env.Registrations() {
		mc.bindExtern(idx)
	}
	b := mc.bound[idx]
	if b.kind == bindJIT {
		return true, mc.handleJIT()
	}

	// Arguments are marshalled into the machine's persistent buffer:
	// extern calls are steady-state (print, malloc, math) and must not
	// allocate per call. Fn implementations receive a view and do not
	// retain it.
	var args []uint64
	if nargs <= len(mc.extArgs) {
		args = mc.extArgs[:nargs]
	} else {
		args = make([]uint64, nargs)
	}
	if mc.desc.StackArgs {
		sp := mc.regs[mc.desc.SP]
		for i := range args {
			v, err := mc.mem.Load(sp+uint64(8*i), 8)
			if err != nil {
				return false, &TrapError{Num: TrapMemoryFault, PC: mc.pc, Detail: err.Error()}
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
	switch b.kind {
	case bindNative:
		res, err = mc.env.CallFn(b.fn, args)
	case bindIntrinsic:
		res, err = mc.intrinsic(mc.externs[idx], args)
	default:
		res, err = mc.env.Call(mc.externs[idx], args)
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
		if mc.privileged {
			return 1, nil
		}
		return 0, nil
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
