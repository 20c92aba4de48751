// Package interp is the LLVA reference interpreter: it executes virtual
// object code directly, defining the V-ISA's semantics. It serves as the
// correctness oracle for the native code generators (a program must behave
// identically on the interpreter and on the simulated processor) and
// implements the paper's exception model (Section 3.3), the constrained
// self-modifying-code model (Section 3.4), and the OS-support intrinsics
// (Section 3.5).
package interp

import (
	"fmt"
	"io"

	"llva/internal/core"
	"llva/internal/image"
	"llva/internal/mem"
	"llva/internal/rt"
)

// FuncAddrBase is the fake address assigned to the first function; it lies
// above any heap or stack address so function pointers are distinguishable
// from data pointers in both 32- and 64-bit configurations.
const FuncAddrBase = 0xF0000000

// Trap numbers delivered to registered trap handlers (paper, Section 3.5).
const (
	TrapMemoryFault = 1
	TrapDivByZero   = 2
	TrapPrivilege   = 3
	TrapUser        = 16 // first user-defined trap number
)

// maxSteps bounds the number of instructions one interpreter executes.
const maxSteps = 2_000_000_000

// Interp executes LLVA modules.
type Interp struct {
	m    *core.Module
	mem  *mem.Memory
	env  *rt.Env
	lay  core.Layout
	data *image.Data

	funcAddr map[string]uint64
	addrFunc map[uint64]*core.Function

	steps uint64

	privileged   bool
	trapHandlers map[uint64]uint64
	storageAPI   uint64

	// smcRedirect maps a function to its replacement body, installed by
	// the llva.smc.replace intrinsic. The redirect takes effect on the
	// NEXT invocation of the function; active invocations are unaffected
	// (paper, Section 3.4).
	smcRedirect map[*core.Function]*core.Function

	// Stats accumulates execution statistics.
	Stats struct {
		Instructions     uint64
		Calls            uint64
		SMCInvalidations int
		TrapsDelivered   int
		TrapsIgnored     int
	}
}

// Option configures the interpreter.
type Option func(*Interp)

// WithMemSize sets the address-space size.
func WithMemSize(n uint64) Option {
	return func(ip *Interp) { ip.mem = mem.New(n, ip.m.LittleEndian) }
}

// New creates an interpreter for module m writing program output to out.
func New(m *core.Module, out io.Writer, opts ...Option) (*Interp, error) {
	ip := &Interp{
		m:            m,
		mem:          mem.New(0, m.LittleEndian),
		lay:          m.Layout(),
		privileged:   true,
		trapHandlers: make(map[uint64]uint64),
		smcRedirect:  make(map[*core.Function]*core.Function),
		funcAddr:     make(map[string]uint64),
		addrFunc:     make(map[uint64]*core.Function),
	}
	for _, o := range opts {
		o(ip)
	}
	ip.env = rt.NewEnv(ip.mem, out)
	ip.env.Clock = func() uint64 { return ip.steps }

	d, err := image.Build(m, mem.NullGuard)
	if err != nil {
		return nil, err
	}
	ip.data = d
	if err := ip.mem.WriteBytes(d.Base, d.Bytes); err != nil {
		return nil, fmt.Errorf("interp: data segment does not fit: %w", err)
	}
	ip.mem.SetHeapStart(d.Base + uint64(len(d.Bytes)))

	for i, f := range m.Functions {
		addr := uint64(FuncAddrBase) + uint64(i)*16
		ip.funcAddr[f.Name()] = addr
		ip.addrFunc[addr] = f
	}
	if err := d.PatchFuncAddrs(m, func(name string) (uint64, bool) {
		a, ok := ip.funcAddr[name]
		return a, ok
	}); err != nil {
		return nil, err
	}
	if err := ip.mem.WriteBytes(d.Base, d.Bytes); err != nil {
		return nil, err
	}
	return ip, nil
}

// Env returns the runtime environment (for registering extra externals).
func (ip *Interp) Env() *rt.Env { return ip.env }

// Memory returns the interpreter's memory.
func (ip *Interp) Memory() *mem.Memory { return ip.mem }

// GlobalAddr returns the address of a global variable.
func (ip *Interp) GlobalAddr(name string) (uint64, bool) {
	a, ok := ip.data.GlobalAddr[name]
	return a, ok
}

// SetPrivileged sets the processor privileged bit.
func (ip *Interp) SetPrivileged(p bool) { ip.privileged = p }

// trap is the internal non-local control signal.
type trap struct {
	kind trapKind
	num  uint64 // trap number for deliverable traps
	err  error
}

type trapKind uint8

const (
	trapNone    trapKind = iota
	trapUnwind           // unwind in progress, looking for an invoke
	trapExit             // program called exit
	trapFatal            // unrecoverable error (bad IR, unknown external, ...)
	trapDeliver          // precise exception to deliver to the program
)

// TrapError is returned by Run when an enabled exception is delivered but
// not handled (or after a registered handler returns).
type TrapError struct {
	Num    uint64
	Detail string
}

func (e *TrapError) Error() string {
	return fmt.Sprintf("interp: unhandled trap %d: %s", e.Num, e.Detail)
}

// Run executes the named function with the given argument words and
// returns its result as a raw 64-bit word.
func (ip *Interp) Run(name string, args ...uint64) (uint64, error) {
	f := ip.m.Function(name)
	if f == nil {
		return 0, fmt.Errorf("interp: no function %%%s", name)
	}
	v, tr := ip.call(f, args)
	ip.Stats.Instructions = ip.steps
	if tr == nil {
		return v, nil
	}
	switch tr.kind {
	case trapExit:
		return v, tr.err
	case trapUnwind:
		return 0, fmt.Errorf("interp: unwind reached the top of the stack")
	case trapDeliver:
		return 0, &TrapError{Num: tr.num, Detail: tr.err.Error()}
	default:
		return 0, tr.err
	}
}

// RunMain executes %main() and returns its integer exit status.
func (ip *Interp) RunMain() (int, error) {
	v, err := ip.Run("main")
	if ee, ok := err.(*rt.ExitError); ok {
		return ee.Code, nil
	}
	return int(int32(v)), err
}

// frame holds per-invocation state.
type frame struct {
	fn      *core.Function
	vals    map[core.Value]uint64
	savedSP uint64
}

func (ip *Interp) call(f *core.Function, args []uint64) (uint64, *trap) {
	ip.Stats.Calls++
	if f.IsIntrinsic() {
		return ip.intrinsic(f, args)
	}
	if f.IsDeclaration() {
		v, err := ip.env.Call(f.Name(), args)
		if err != nil {
			if _, isExit := err.(*rt.ExitError); isExit {
				return v, &trap{kind: trapExit, err: err}
			}
			if flt, isFault := err.(*mem.Fault); isFault {
				return 0, ip.deliver(TrapMemoryFault, flt)
			}
			return 0, &trap{kind: trapFatal, err: err}
		}
		return v, nil
	}
	// Self-modifying code: execute the replacement body if one was
	// installed before this invocation began.
	if repl, ok := ip.smcRedirect[f]; ok {
		f = repl
	}

	fr := &frame{fn: f, vals: make(map[core.Value]uint64, 16), savedSP: ip.mem.SP()}
	for i, p := range f.Params {
		if i < len(args) {
			fr.vals[p] = args[i]
		}
	}
	defer ip.mem.SetSP(fr.savedSP)

	bb := f.Entry()
	var prev *core.BasicBlock
	for {
		v, next, tr := ip.execBlock(fr, bb, prev)
		if tr != nil {
			return v, tr
		}
		if next == nil {
			return v, nil // ret
		}
		prev, bb = bb, next
	}
}

// execBlock runs one basic block: first the phis (against prev), then the
// straight-line body, then the terminator. It returns (retval, nextBlock,
// trap): nextBlock nil means the function returned.
func (ip *Interp) execBlock(fr *frame, bb, prev *core.BasicBlock) (uint64, *core.BasicBlock, *trap) {
	instrs := bb.Instructions()
	// Phi nodes evaluate in parallel against the edge just traversed.
	nPhi := 0
	for _, in := range instrs {
		if in.Op() != core.OpPhi {
			break
		}
		nPhi++
	}
	if nPhi > 0 {
		tmp := make([]uint64, nPhi)
		for i := 0; i < nPhi; i++ {
			v := instrs[i].PhiIncomingFor(prev)
			if v == nil {
				return 0, nil, &trap{kind: trapFatal,
					err: fmt.Errorf("interp: phi in %%%s has no incoming for %%%s", bb.Name(), prev.Name())}
			}
			w, tr := ip.operand(fr, v)
			if tr != nil {
				return 0, nil, tr
			}
			tmp[i] = w
		}
		for i := 0; i < nPhi; i++ {
			fr.vals[instrs[i]] = tmp[i]
		}
		ip.steps += uint64(nPhi)
	}

	for _, in := range instrs[nPhi:] {
		ip.steps++
		if ip.steps > maxSteps {
			return 0, nil, &trap{kind: trapFatal, err: fmt.Errorf("interp: step limit exceeded (%d)", maxSteps)}
		}
		if in.IsTerminator() {
			return ip.execTerminator(fr, in)
		}
		v, tr := ip.execInstr(fr, in)
		if tr != nil {
			return 0, nil, tr
		}
		if in.HasResult() {
			fr.vals[in] = v
		}
	}
	return 0, nil, &trap{kind: trapFatal, err: fmt.Errorf("interp: block %%%s has no terminator", bb.Name())}
}

// deliver creates a precise-exception trap, first consulting the
// registered trap handler table.
func (ip *Interp) deliver(num uint64, cause error) *trap {
	ip.Stats.TrapsDelivered++
	if haddr, ok := ip.trapHandlers[num]; ok {
		if hf, ok := ip.addrFunc[haddr]; ok {
			// The handler is an ordinary LLVA function taking the trap
			// number and a void* info pointer (paper, Section 3.5).
			_, tr := ip.call(hf, []uint64{num, 0})
			if tr != nil {
				return tr
			}
			// Handler returned: the exception remains fatal for the
			// faulting computation.
		}
	}
	return &trap{kind: trapDeliver, num: num, err: cause}
}

// ignored records a suppressed exception (ExceptionsEnabled == false).
func (ip *Interp) ignored() { ip.Stats.TrapsIgnored++ }
