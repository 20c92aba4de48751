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
	// The budget is the run's own, like gas: a machine that is run again
	// without a Reset starts a fresh one.
	stop := mc.Stats.Instrs + max
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
		if mc.Stats.Instrs >= stop {
			return &LimitError{PC: mc.pc, Limit: max}
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
			r[u.rd] = canonInt(u.size(), u.signed(), v)
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
		b := canonInt(u.size(), u.signed(), v)
		if u.fp() {
			if u.size() == 4 {
				b = math.Float64bits(float64(math.Float32frombits(uint32(v))))
			} else {
				b = v
			}
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

// alu executes the ALU forms without an op of their own.
func (mc *Machine) alu(u *uop, a, b uint64) error {
	op, size, signed := target.ALUOp(u.k), u.size(), u.signed()
	rd := &mc.regs[u.rd]
	if u.fp() {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		var r float64
		switch op {
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
			return fmt.Errorf("machine: FP %s", op)
		}
		*rd = canonFloat(size, math.Float64bits(r))
		return nil
	}

	var r uint64
	switch op {
	case target.AAdd:
		r = a + b
	case target.ASub:
		r = a - b
	case target.AMul:
		r = a * b
	case target.ADiv, target.ARem:
		if truncBits(size, b) == 0 {
			if u.noTrap() {
				*rd = 0
				return nil
			}
			return &TrapError{Num: TrapDivByZero, PC: mc.pc, Detail: op.String() + " by zero"}
		}
		if signed {
			x, y := int64(a), int64(b)
			if x == math.MinInt64 && y == -1 {
				if u.noTrap() {
					*rd = 0
					return nil
				}
				return &TrapError{Num: TrapDivByZero, PC: mc.pc, Detail: "division overflow"}
			}
			if op == target.ADiv {
				r = uint64(x / y)
			} else {
				r = uint64(x % y)
			}
		} else {
			x, y := truncBits(size, a), truncBits(size, b)
			if op == target.ADiv {
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
			*rd = 0
			if op == target.AShr && signed && int64(a) < 0 {
				*rd = ^uint64(0)
			}
			return nil
		}
		if op == target.AShl {
			r = a << s
		} else if signed {
			r = uint64(int64(a) >> s)
		} else {
			r = truncBits(size, a) >> s
		}
	}
	*rd = canonInt(size, signed, r)
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

// cvt executes the conversions without an op of their own.
func (mc *Machine) cvt(u *uop) {
	v := mc.regs[u.ra]
	size, signed := u.size(), u.signed()
	rd := &mc.regs[u.rd]
	switch target.CvtOp(u.k) {
	case target.CvtIntExt:
		*rd = canonInt(size, signed, v)
	case target.CvtIntToF:
		var f float64
		if signed {
			f = float64(int64(v))
		} else {
			f = float64(v)
		}
		*rd = canonFloat(size, math.Float64bits(f))
	case target.CvtFToInt:
		f := math.Float64frombits(v)
		var r uint64
		if math.IsNaN(f) {
			r = 0
		} else if signed || f < 0 {
			r = uint64(int64(clampF(f)))
		} else {
			r = clampFU(f)
		}
		*rd = canonInt(size, signed, r)
	case target.CvtFToF:
		*rd = canonFloat(size, v)
	case target.CvtBits:
		*rd = v
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
