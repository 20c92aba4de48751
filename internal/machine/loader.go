// Package machine implements the simulated hardware processor that
// executes translated native code — the substitute for the paper's SPARC
// V9 and IA-32 silicon (DESIGN.md, substitution table). It fetches and
// decodes encoded instructions from its flat memory, maintains integer
// and floating-point register files, counts instructions and cycles, and
// provides the loader/relocation machinery the execution manager (LLEE)
// uses, including lazy-JIT stubs for translate-on-demand.
package machine

import (
	"context"
	"fmt"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/image"
	"llva/internal/mem"
	"llva/internal/prof"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// CodeReserve is the size of the machine's code segment: translated code
// is installed inside [codeBase, codeBase+CodeReserve) and the heap
// starts above it, so translating a function mid-execution (lazy JIT,
// SMC retranslation) never collides with live heap data.
const CodeReserve = 8 << 20

// JITExtern is the reserved external "function" used by lazy translation
// stubs: calling it asks the execution manager to translate the function
// whose index is in the first scratch register, and control transfers to
// the returned code address.
const JITExtern = "llva.jit"

// Machine is one simulated processor instance.
type Machine struct {
	desc *target.Desc
	mem  *mem.Memory
	env  *rt.Env

	// regs is the unified register file: integer bank at [0, 64), FP
	// bank at [64, 128) — exactly the Reg numbering — and above it the
	// slots micro-ops give absent operands (uop.go).
	regs  [regSlots]uint64
	pc    uint64
	flags uint8 // flagLT | flagEQ, as the last compare left them

	// blocks is the predecoded basic-block cache (block.go), the
	// machine's I-cache/trace-cache analog. code is a direct view of
	// the code segment [codeBase, codeLimit) used by the predecoder.
	blocks map[uint64]*block
	code   []byte
	// Predecode storage (block.go): blocks and their op slices are carved
	// from chunked arenas; opScratch is the reusable lowering buffer
	// sealed into the arena at exact size.
	blockChunk []block
	opChunk    []uop
	opScratch  []uop
	// extArgs is the persistent marshalling buffer for external-call
	// arguments: rt.Fn implementations receive a view of it and must not
	// retain it past the call (none do — they consume raw words).
	extArgs [16]uint64
	// pendCycles is the executing block's not-yet-flushed cycle prefix,
	// added to Stats.Cycles by the virtual clock; non-zero only while an
	// extern call is in progress.
	pendCycles uint64

	codeBase, codeEnd, codeLimit uint64

	// funcCode records each installed function's code range so
	// InvalidateFunction can evict its predecoded blocks.
	funcCode []codeRange

	funcAddr map[string]uint64
	addrFunc map[uint64]string

	// externs is the extern table MCallExt indexes, by name; bound holds,
	// index for index, what callExt resolved each name to the first time
	// it was called, and boundAt env.Registrations() as of then.
	externs   []string
	externIdx map[string]int
	bound     []binding
	boundAt   int

	invokeStack []invokeFrame

	// Guest-level observability (prof.go). prof/profNext drive the
	// deterministic virtual-PC sampler; callStack is the shadow stack
	// of return addresses maintained while trackCalls is on and
	// sampleStack its rendering for the sample being taken; the
	// flight recorder fields capture the trap-time snapshot.
	prof        *prof.Profiler
	profNext    uint64
	trackCalls  bool
	callStack   []uint64
	sampleStack []string
	recordCrash bool
	crashEvents int
	lastCrash   *prof.CrashReport

	privileged bool

	// OnJIT is invoked when a lazy stub is hit; it must install the
	// function's code (via InstallCode) and return its entry address.
	OnJIT func(name string) (uint64, error)
	// OnIntrinsic handles llva.* intrinsic calls not implemented by the
	// machine itself (smc, storage). args are raw words.
	OnIntrinsic func(name string, args []uint64) (uint64, error)

	// Stats accumulates execution counters.
	Stats ExecStats
	// tele, when set, receives the counter deltas after each Run.
	tele        *telemetry.Registry
	teleFlushed ExecStats

	// MaxInstrs bounds execution (0 = 2 billion).
	MaxInstrs uint64

	// Gas metering (gas.go): gasBudget is the per-run cycle allowance
	// set by SetGas (0: unmetered); gasStart/gasStop are the armed run's
	// virtual-clock window, checked once per block by loop().
	gasBudget uint64
	gasStart  uint64
	gasStop   uint64

	// runCtx is the active RunContext's context, polled at block
	// boundaries by loop(); nil outside a run.
	runCtx context.Context

	haltAddr uint64

	// loader state
	module    *core.Module
	dataImage *image.Data
	globals   map[string]uint64
	stubNames []string
	stubAddr  []uint64
}

// codeRange is one installed function body's extent in code memory, and
// where its LLVA blocks start (nil for code without a table: tier 2's).
type codeRange struct {
	name   string
	lo, hi uint64
	blocks codegen.BlockTable
}

// invokeFrame is one entry of the unwind-handler stack. It records only
// the handler address and the invoking frame's SP/FP: unwinding walks
// frames, it does not checkpoint the register file, so the translator
// must keep values live into a handler in the frame itself
// (internal/codegen spills them around invoke). depth remembers the
// shadow call stack's length at invoke time so an unwind can cut the
// backtrace back to the invoking frame.
type invokeFrame struct {
	handler uint64
	sp, fp  uint64
	depth   int
}

// New creates a machine for the given target over fresh memory, loading
// the module's static data segment.
func New(d *target.Desc, m *core.Module, env *rt.Env) (*Machine, error) {
	data, err := image.Build(m, mem.NullGuard)
	if err != nil {
		return nil, err
	}
	return NewWithImage(d, m, env, data)
}

// NewWithImage creates a machine over a pre-built data image, taking
// ownership of it (fixup patching mutates data.Bytes — hand a prototype
// a Clone, never the prototype itself). The execution manager builds
// the image once per module and clones it per session, so repeated
// session setup skips global layout and initializer encoding.
func NewWithImage(d *target.Desc, m *core.Module, env *rt.Env, data *image.Data) (*Machine, error) {
	mc := &Machine{
		desc:       d,
		mem:        env.Mem,
		env:        env,
		blocks:     make(map[uint64]*block),
		funcAddr:   make(map[string]uint64),
		addrFunc:   make(map[uint64]string),
		externIdx:  make(map[string]int),
		externs:    make([]string, 0, 8), // a program's handful, plus the JIT extern
		bound:      make([]binding, 0, 8),
		privileged: true,
		MaxInstrs:  2_000_000_000,
	}
	// The virtual clock is installed once; the per-run hot path never
	// rebuilds the closure.
	env.Clock = func() uint64 { return mc.Stats.Cycles + mc.pendCycles }
	if err := mc.mem.WriteBytes(data.Base, data.Bytes); err != nil {
		return nil, fmt.Errorf("machine: data segment does not fit: %w", err)
	}
	mc.codeBase = (data.Base + uint64(len(data.Bytes)) + 15) &^ 15
	mc.codeEnd = mc.codeBase
	mc.codeLimit = mc.codeBase + CodeReserve
	if mc.codeLimit > mc.mem.Size()/2 {
		mc.codeLimit = mc.mem.Size() / 2
	}
	// One persistent view of the whole code segment: the predecoder
	// reads instructions in place instead of cutting a bounds-checked
	// fetch window per instruction. Memory never reallocates its
	// backing array, so the view stays valid as code is installed.
	code, err := mc.mem.Bytes(mc.codeBase, mc.codeLimit-mc.codeBase)
	mc.code = code
	if err != nil {
		return nil, fmt.Errorf("machine: code segment does not fit: %w", err)
	}
	mc.mem.SetHeapStart(mc.codeLimit)
	mc.globals = data.GlobalAddr
	mc.dataImage = data
	mc.module = m
	return mc, nil
}

// Env returns the runtime environment.
func (mc *Machine) Env() *rt.Env { return mc.env }

// Desc returns the target description.
func (mc *Machine) Desc() *target.Desc { return mc.desc }

// FuncAddr returns the code address of a function, if loaded or stubbed.
func (mc *Machine) FuncAddr(name string) (uint64, bool) {
	a, ok := mc.funcAddr[name]
	return a, ok
}

// NameAt returns the function bound at a code address, if any.
func (mc *Machine) NameAt(addr uint64) (string, bool) {
	n, ok := mc.addrFunc[addr]
	return n, ok
}

// stubFor returns (creating if necessary) the lazy stub of a function.
func (mc *Machine) stubFor(name string) (uint64, error) {
	for id, n := range mc.stubNames {
		if n == name {
			return mc.stubAddr[id], nil
		}
	}
	// makeStub binds the name to the new stub; an existing binding stays.
	old, hadOld := mc.funcAddr[name]
	addr, err := mc.makeStub(name)
	if err != nil {
		return 0, err
	}
	if hadOld {
		mc.bind(name, old)
	}
	return addr, nil
}

// InvalidateFunction makes every installed body of a function
// unreachable: the name is rebound to its stub, and the first instruction
// of each body is overwritten with a jump to that stub, so direct callers
// patched to a body's address, function pointers holding it and chained
// blocks all re-enter the JIT on the next invocation (Section 3.4), while
// an active invocation finishes on the old code. It never re-executes its
// prologue, and the prologue is where the jump lands: every translated
// body opens with a frame set-up longer than one MJmp on either target
// (TestInvalidationPatchFitsPrologue). The bodies' predecoded blocks are
// evicted so the patched bytes are decoded afresh. This is the machine
// half of llva.smc.replace.
func (mc *Machine) InvalidateFunction(name string) error {
	stub, err := mc.stubFor(name)
	if err != nil {
		return err
	}
	mc.bind(name, stub)
	for _, r := range mc.funcCode {
		if r.name != name {
			continue
		}
		jmp := target.MInstr{Op: target.MJmp,
			Target: int32((int64(stub) - int64(r.lo)) / int64(mc.desc.RelBranchScale))}
		patch, _ := mc.desc.Encode(&jmp, nil)
		if err := mc.mem.WriteBytes(r.lo, patch); err != nil {
			return fmt.Errorf("machine: invalidate %s: %w", name, err)
		}
		mc.invalidateBlocks(r.lo, r.hi)
	}
	return nil
}

// externIndex interns an external function name.
func (mc *Machine) externIndex(sym string) int {
	if i, ok := mc.externIdx[sym]; ok {
		return i
	}
	i := len(mc.externs)
	mc.externs = append(mc.externs, sym)
	mc.bound = append(mc.bound, binding{})
	mc.externIdx[sym] = i
	return i
}

// InstallCode places a translated function into code memory, resolving
// its relocations, and binds its name to the new address. Re-installing a
// name rebinds it (used by SMC invalidation and lazy JIT).
func (mc *Machine) InstallCode(nf *codegen.NativeFunc) (uint64, error) {
	// Reserve this function's address range up front: resolving its
	// relocations may itself emit stubs, which must land after it.
	addr := (mc.codeEnd + 15) &^ 15
	if addr+uint64(len(nf.Code)) > mc.codeLimit {
		return 0, fmt.Errorf("machine: code segment exhausted loading %s", nf.Name)
	}
	hi := addr + uint64(len(nf.Code))
	mc.codeEnd = hi
	// Bind early so self-recursive calls resolve to this function.
	mc.bind(nf.Name, addr)
	// Copy the body into code memory first, then patch relocations in
	// place on the machine's code view: nf.Code itself is shared
	// (cache-decoded objects alias the storage blob) and is never
	// mutated, and the old intermediate per-install copy is gone.
	if err := mc.mem.WriteBytes(addr, nf.Code); err != nil {
		return 0, fmt.Errorf("machine: code segment overflow loading %s", nf.Name)
	}
	installed := mc.code[addr-mc.codeBase : hi-mc.codeBase]
	for _, rl := range nf.Relocs {
		val, err := mc.resolveSym(rl)
		if err != nil {
			return 0, fmt.Errorf("machine: %s: %w", nf.Name, err)
		}
		if err := mc.desc.Patch(installed, rl.Offset, rl.Kind, val); err != nil {
			return 0, fmt.Errorf("machine: %s: %%%s: %w", nf.Name, rl.Sym, err)
		}
	}
	// Drop any predecoded blocks overlapping the installed range — new
	// bytes must never execute through a stale predecode (§3.5's
	// function-granularity SMC contract) — and remember the function's
	// extent so InvalidateFunction can evict its blocks later. The
	// recorded range is the body's [addr, hi) captured before relocation:
	// resolving relocations can emit lazy stubs past hi, and those belong
	// to their own callees (addrFunc), not to this function — recording
	// codeEnd here would make funcAt misattribute stub PCs to nf.Name.
	mc.invalidateBlocks(addr, mc.codeEnd)
	for _, r := range mc.funcCode {
		if r.name == nf.Name {
			mc.Stats.Replacements++
			break
		}
	}
	mc.funcCode = append(mc.funcCode, codeRange{name: nf.Name, lo: addr, hi: hi, blocks: nf.Blocks})
	return addr, nil
}

// bind makes addr the current code address of name. Older addresses (the
// stub, or superseded translations) keep their reverse mapping: code at
// those addresses still belongs to the function, and function-pointer
// values already in data may reference them.
func (mc *Machine) bind(name string, addr uint64) {
	mc.funcAddr[name] = addr
	mc.addrFunc[addr] = name
}

// resolveSym resolves a relocation symbol: defined/stubbed functions to
// their code address, globals to their data address, externs to their
// extern-table index.
func (mc *Machine) resolveSym(rl target.Reloc) (uint64, error) {
	if rl.Kind == target.RelocExt {
		return uint64(mc.externIndex(rl.Sym)), nil
	}
	if a, ok := mc.funcAddr[rl.Sym]; ok {
		return a, nil
	}
	if a, ok := mc.globals[rl.Sym]; ok {
		return a, nil
	}
	// Function not yet loaded: create a lazy JIT stub for it.
	if mc.module.Function(rl.Sym) != nil {
		return mc.makeStub(rl.Sym)
	}
	return 0, fmt.Errorf("unresolved symbol %%%s", rl.Sym)
}

// makeStub emits a lazy translation stub: when executed, it traps to the
// execution manager (via the reserved JIT extern), which translates the
// function and transfers control to the fresh code. Function indices ride
// in the first scratch register so the original call's arguments stay
// undisturbed.
func (mc *Machine) makeStub(name string) (uint64, error) {
	id := len(mc.stubNames)
	if mc.desc.WordSize == 4 && id > 32767 {
		// One MMovRI carries a sign-extended 16-bit chunk on vsparc.
		return 0, fmt.Errorf("machine: too many lazy stubs for %s", mc.desc.Name)
	}
	addr, err := mc.emit(
		target.MInstr{Op: target.MMovRI, Rd: mc.desc.Scratch[0], Imm: int64(id)},
		target.MInstr{Op: target.MCallExt, Sym: JITExtern})
	if err != nil {
		return 0, err
	}
	mc.stubNames = append(mc.stubNames, name)
	mc.stubAddr = append(mc.stubAddr, addr)
	// The stub is the function's address until real code is installed;
	// the JIT rebinds but existing callers keep jumping through the stub,
	// so the stub learns the real address on first use (the machine's
	// JIT extern handler re-reads funcAddr each time).
	mc.bind(name, addr)
	return addr, nil
}

// emit encodes instrs, whose only symbols are the externs they call, and
// places them at the next aligned address of the code segment.
func (mc *Machine) emit(instrs ...target.MInstr) (uint64, error) {
	var code []byte
	for i := range instrs {
		start := uint32(len(code))
		var rl []target.Reloc
		code, rl = mc.desc.Encode(&instrs[i], code)
		for _, r := range rl {
			// An extern index always fits its slot.
			_ = mc.desc.Patch(code, start+r.Offset, r.Kind, uint64(mc.externIndex(r.Sym)))
		}
	}
	addr := (mc.codeEnd + 15) &^ 15
	if addr+uint64(len(code)) > mc.codeLimit {
		return 0, fmt.Errorf("machine: code segment exhausted")
	}
	if err := mc.mem.WriteBytes(addr, code); err != nil {
		return 0, err
	}
	mc.codeEnd = addr + uint64(len(code))
	return addr, nil
}

// LoadObject installs the functions of a native object in order, then
// resolves the data segment's function pointers. A call to a function
// installed earlier is patched to its code; a call to one that comes
// later in obj, or is not in obj at all, is patched to its lazy stub, and
// functions whose address is taken in data get stubs likewise: an object
// may hold any part of the module, none of it included.
func (mc *Machine) LoadObject(obj *codegen.NativeObject) error {
	if obj.TargetName != mc.desc.Name {
		return fmt.Errorf("machine: object targets %s, machine is %s",
			obj.TargetName, mc.desc.Name)
	}
	for _, nf := range obj.Funcs {
		if _, err := mc.InstallCode(nf); err != nil {
			return err
		}
	}
	return mc.patchDataFuncAddrs()
}

// patchDataFuncAddrs resolves function-address fixups in the data image
// (function-pointer tables in globals).
func (mc *Machine) patchDataFuncAddrs() error {
	if mc.dataImage == nil {
		return nil
	}
	err := mc.dataImage.PatchFuncAddrs(mc.module, func(name string) (uint64, bool) {
		if a, ok := mc.funcAddr[name]; ok {
			return a, true
		}
		// Declarations and not-yet-loaded functions get stubs.
		if f := mc.module.Function(name); f != nil {
			if f.IsDeclaration() {
				a, e := mc.makeExternThunk(name)
				if e != nil {
					return 0, false
				}
				return a, true
			}
			a, e := mc.makeStub(name)
			if e != nil {
				return 0, false
			}
			return a, true
		}
		return 0, false
	})
	if err != nil {
		return err
	}
	return mc.mem.WriteBytes(mc.dataImage.Base, mc.dataImage.Bytes)
}

// makeExternThunk emits real code for taking the address of an external
// (native) function: a CallExt followed by a return, so indirect calls to
// it behave like calls to a native library function.
func (mc *Machine) makeExternThunk(name string) (uint64, error) {
	if a, ok := mc.funcAddr[name]; ok {
		return a, nil
	}
	nargs := 0
	if f := mc.module.Function(name); f != nil {
		nargs = len(f.Signature().Params())
	}
	addr, err := mc.emit(
		target.MInstr{Op: target.MCallExt, Sym: name, NArgs: uint8(nargs)},
		target.MInstr{Op: target.MRet})
	if err != nil {
		return 0, err
	}
	mc.bind(name, addr)
	return addr, nil
}
