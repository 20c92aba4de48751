// Package codegen is the LLVA translator back-end: it compiles virtual
// object code to native code for a target I-ISA (paper, Figure 1). It
// performs instruction selection with simple pattern fusion (combining
// multiple LLVA instructions into complex I-ISA instructions where the
// target allows: getelementptr into addressing modes, comparisons into
// compare-and-branch), phi elimination, frame lowering (preallocating all
// fixed-size allocas in the stack frame, Section 3.2), calling-convention
// lowering, and register allocation.
//
// Register allocation is a global linear scan (allocLinear) shared by
// both back-ends, parameterised over the target's caller-saved and
// callee-saved register pools and safe across invoke/unwind (values live
// into an unwind handler are spilled to frame slots, since the unwinder
// restores only SP and FP). The paper's naive spill-everything allocator
// ("the x86 back-end performs virtually no optimization and very simple
// register allocation resulting in significant spill code") survives in
// the tests, as a differential oracle for it.
//
// The translator runs in offline mode (whole module) or JIT mode (one
// function at a time, on demand) — both produce identical code.
package codegen

import (
	"encoding/binary"
	"fmt"
	"time"

	"llva/internal/core"
	"llva/internal/prof"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// NativeFunc is the translated native code of one function.
type NativeFunc struct {
	Name string
	Code []byte
	// Relocs hold symbol references to resolve at load time; offsets are
	// relative to Code.
	Relocs []target.Reloc
	// NumInstrs is the machine instruction count (the Table 2 metric).
	NumInstrs int
	// NumLLVA is the source LLVA instruction count.
	NumLLVA int
	// Blocks locates the function's LLVA blocks in Code, for a profile
	// to count block entries by: set on tier-1 code, nil on tier 2's,
	// whose blocks are the transformed clone's and whose entries no
	// profile counts.
	Blocks BlockTable
}

// BlockTable maps a function's LLVA blocks into its tier-1 code: entry i
// is the byte offset of block i's first instruction, and one more entry
// the epilogue's. Entries are little-endian uint32s, so that a cache
// record can hold the table as a view of its blob. A block the lowering
// left empty (a jump threaded past or elided) starts where the next one
// does.
type BlockTable []byte

// Len returns the number of entries: the function's blocks, plus one.
func (t BlockTable) Len() int { return len(t) / 4 }

// Off returns entry i.
func (t BlockTable) Off(i int) uint64 { return uint64(binary.LittleEndian.Uint32(t[4*i:])) }

// Valid reports whether t is a table of code codeLen bytes long: whole
// entries, ascending, none past the end.
func (t BlockTable) Valid(codeLen int) bool {
	if len(t)%4 != 0 {
		return false
	}
	var prev uint64
	for i := 0; i < t.Len(); i++ {
		off := t.Off(i)
		if off < prev || off > uint64(codeLen) {
			return false
		}
		prev = off
	}
	return true
}

// NativeObject is the translation of a module for one target.
type NativeObject struct {
	TargetName string
	Module     string
	Funcs      []*NativeFunc
	byName     map[string]*NativeFunc
}

// Func returns the named translated function, or nil.
func (o *NativeObject) Func(name string) *NativeFunc {
	return o.byName[name]
}

// Add appends a translated function.
func (o *NativeObject) Add(f *NativeFunc) {
	if o.byName == nil {
		o.byName = make(map[string]*NativeFunc)
	}
	o.Funcs = append(o.Funcs, f)
	o.byName[f.Name] = f
}

// CodeSize returns the total native code size in bytes.
func (o *NativeObject) CodeSize() int {
	n := 0
	for _, f := range o.Funcs {
		n += len(f.Code)
	}
	return n
}

// NumInstrs returns the total machine instruction count.
func (o *NativeObject) NumInstrs() int {
	n := 0
	for _, f := range o.Funcs {
		n += f.NumInstrs
	}
	return n
}

// Revision names what this translator emits: bump it with every change
// that moves the code of some function (the changes that regenerate
// TestNativeGolden's file, which refuses to without a new name). The
// execution manager stamps cached translations and guest profiles with
// it, so code another revision emitted, and profiles counted in that
// code's address space, are cache misses and not stale hits (paper,
// Section 4.1: validate the cached translation, else translate online).
const Revision = "10"

// Metric names published to a shared registry via SetTelemetry.
const (
	MetricSpills        = "codegen.spills"
	MetricReloads       = "codegen.reloads"
	MetricSaves         = "codegen.saves"
	MetricRegallocNS    = "codegen.regalloc_ns"
	MetricTier2Funcs    = "codegen.tier2_funcs"
	MetricSuperblocks   = "codegen.superblocks"
	MetricTailDupInstrs = "codegen.tail_dup_instrs"
	// Per hot function, the wall time of tier 2's three costly stages:
	// cloning the body, verifying the transformed clone, and lowering it.
	MetricTier2CloneNS  = "codegen.tier2_clone_ns"
	MetricTier2VerifyNS = "codegen.tier2_verify_ns"
	MetricTier2LowerNS  = "codegen.tier2_lower_ns"
)

// Translator compiles a module's functions for one target.
type Translator struct {
	desc *target.Desc
	m    *core.Module
	lay  core.Layout

	// tier is 1 (fast, profile-free, the default) or 2 (profile-guided
	// superblock formation + hot inlining; see tier2.go). Tier 2 carries
	// the guiding profile in art.
	tier int
	art  *prof.Artifact

	// telemetry handles; nil until SetTelemetry wires them
	spills, reloads *telemetry.Counter
	saves           *telemetry.Counter
	regallocNS      *telemetry.Histogram
	tier2Funcs      *telemetry.Counter
	superblocks     *telemetry.Counter
	tailDupInstrs   *telemetry.Counter
	tier2CloneNS    *telemetry.Histogram
	tier2VerifyNS   *telemetry.Histogram
	tier2LowerNS    *telemetry.Histogram
}

// New creates a translator for module m targeting desc. The simulated
// processors are 64-bit little-endian; modules with other configurations
// are rejected, exactly as a real translator would refuse object code
// whose configuration flags do not match the implementation (Section 3.2).
func New(desc *target.Desc, m *core.Module) (*Translator, error) {
	if m.PointerSize != 8 {
		return nil, fmt.Errorf("codegen: %s implements 64-bit pointers; module %q requires %d-bit",
			desc.Name, m.Name, m.PointerSize*8)
	}
	if !m.LittleEndian {
		return nil, fmt.Errorf("codegen: %s is little-endian; module %q is big-endian",
			desc.Name, m.Name)
	}
	return &Translator{desc: desc, m: m, lay: m.Layout()}, nil
}

// Target returns the target description.
func (t *Translator) Target() *target.Desc { return t.desc }

// SetTelemetry publishes the translator's counters into reg: spill
// stores and reloads emitted by register allocation (codegen.spills /
// codegen.reloads), the callee-saved registers prologues save
// (codegen.saves), per-function allocation time (codegen.regalloc_ns),
// and what tier 2 shipped and spent (codegen.tier2_*). Call it before
// translation begins; the handles are atomic, so concurrent
// TranslateFunction calls remain safe.
func (t *Translator) SetTelemetry(reg *telemetry.Registry) {
	t.spills = reg.Counter(MetricSpills)
	t.reloads = reg.Counter(MetricReloads)
	t.saves = reg.Counter(MetricSaves)
	t.regallocNS = reg.Histogram(MetricRegallocNS)
	t.tier2Funcs = reg.Counter(MetricTier2Funcs)
	t.superblocks = reg.Counter(MetricSuperblocks)
	t.tailDupInstrs = reg.Counter(MetricTailDupInstrs)
	t.tier2CloneNS = reg.Histogram(MetricTier2CloneNS)
	t.tier2VerifyNS = reg.Histogram(MetricTier2VerifyNS)
	t.tier2LowerNS = reg.Histogram(MetricTier2LowerNS)
}

// observeSince records the time since start in h, when telemetry is on.
func observeSince(h *telemetry.Histogram, start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Nanoseconds())
	}
}

// Module returns the module being translated.
func (t *Translator) Module() *core.Module { return t.m }

// TranslateModule compiles every defined function (offline mode).
func (t *Translator) TranslateModule() (*NativeObject, error) {
	n := 0
	for _, f := range t.m.Functions {
		if !f.IsDeclaration() {
			n++
		}
	}
	obj := &NativeObject{TargetName: t.desc.Name, Module: t.m.Name,
		Funcs: make([]*NativeFunc, 0, n), byName: make(map[string]*NativeFunc, n)}
	for _, f := range t.m.Functions {
		if f.IsDeclaration() {
			continue
		}
		nf, err := t.TranslateFunction(f)
		if err != nil {
			return nil, err
		}
		obj.Add(nf)
	}
	return obj, nil
}

// TranslateFunction compiles a single function (JIT mode unit). Each
// call lowers in a workspace of its own, taken from a pool and returned
// to it when the call is done; the module and the translator are only
// read. So independent functions may be translated concurrently on one
// Translator, and a translation allocates only what it returns. On a
// tier-2 translator (WithTier2), functions with profile coverage go
// through the superblock pipeline; functions that never ran under the
// profiler fall back to tier-1 lowering. A panic in lowering comes back
// as a *PanicError, and its workspace is dropped.
func (t *Translator) TranslateFunction(f *core.Function) (nf *NativeFunc, err error) {
	ws := workspaces.Get().(*workspace)
	defer func() {
		if r := recover(); r != nil {
			nf, err = nil, &PanicError{Func: f.Name(), Value: r}
			return
		}
		workspaces.Put(ws)
	}()
	if t.tier >= 2 {
		if nf, ok := t.tryTier2(ws, f); ok {
			return nf, nil
		}
	}
	return t.lower(ws, f, nil, nil), nil
}

// PanicError reports a translation that panicked: the translator's own
// invariant failed on Func, whose code is not returned.
type PanicError struct {
	Func  string
	Value any // what the translator panicked with
}

func (e *PanicError) Error() string { return fmt.Sprintf("codegen: %%%s: %v", e.Func, e.Value) }

// Unwrap returns what the translator panicked with, if it is an error
// (a *target.CheckError from layout).
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// lower is the one lowering every function takes on both targets and
// both tiers: selection, copy coalescing, register allocation, frame
// lowering, the branch peepholes (branch-polarity inversion, jump
// threading), fallthrough elision, the flags pass (flags.go) and final
// layout, all in ws. A non-nil perm places blocks in trace order at the
// machine level — after register allocation, so live intervals (and
// therefore spills) are measured in the stable IR order the profile was
// gathered against. A non-nil hm feeds per-block heat to the allocator
// for interval weights, which makes it evict by heat; without one, the
// code is tier 1's and carries its block table.
func (t *Translator) lower(ws *workspace, f *core.Function, perm []int, hm heat) *NativeFunc {
	sel := newSelector(t, f, ws)
	if hm != nil {
		sel.blockHeat = zeroed(ws.blockHeat, len(f.Blocks))
		ws.blockHeat = sel.blockHeat
		for i, bb := range f.Blocks {
			sel.blockHeat[i] = hm.of(bb)
		}
	}
	sel.run()

	// Register allocation: the global linear scan handles both targets
	// and invoke-containing functions (values live into an unwind handler
	// are force-spilled; see linearScan), on coalesced code. A test hook
	// may allocate instead: the differential tests' spill-everything
	// oracle, on the code as selected, which checks the coalescer too.
	start := time.Now()
	if allocTestHook == nil || !allocTestHook(sel) {
		lr := solveLiveness(sel)
		coalesce(sel, lr)
		allocLinear(sel, lr)
	}
	if t.regallocNS != nil {
		t.regallocNS.Observe(time.Since(start).Nanoseconds())
		t.spills.Add(uint64(sel.nSpillStores))
		t.reloads.Add(uint64(sel.nSpillLoads))
		t.saves.Add(uint64(len(sel.savedRegs)))
	}
	if lowerTestHook != nil {
		lowerTestHook(sel, afterAlloc)
	}

	addFrame(sel, perm)
	invertBranches(sel)
	threadJumps(sel)
	elideFallthroughs(sel)
	if lowerTestHook != nil {
		lowerTestHook(sel, afterLayout)
	}
	useALUFlags(sel)
	if lowerTestHook != nil {
		lowerTestHook(sel, afterFlags)
	}
	nf := &NativeFunc{
		Name:      f.Name(),
		NumInstrs: len(sel.code),
		NumLLVA:   f.NumInstructions(),
	}
	nf.Code, nf.Relocs, nf.Blocks = layout(sel, hm == nil)
	return nf
}

// allocTestHook, when set, runs in lower in place of coalescing and the
// linear scan, and reports whether it allocated the function.
var allocTestHook func(*selector) bool

// lowerTestHook, when set, runs in lower at each of its stages: between
// register allocation and frame lowering, once selection, coalescing and
// allocation have written their tables; once the code is framed, its
// blocks placed (in trace order at tier 2) and its branches final; and
// after the flags pass. Tests set it to panic there, or to check the
// code.
var lowerTestHook func(*selector, lowerStage)

// lowerStage names the point of lower at which lowerTestHook runs.
type lowerStage uint8

const (
	afterAlloc lowerStage = iota
	afterLayout
	afterFlags
)

// elideFallthroughs removes an unconditional jump whose target is the
// block that immediately follows it in layout order — or follows it once
// the jumps in between, themselves elided, are gone (a jump over a block
// that is nothing but a jump, which threadJumps has left without
// entries). It also removes a jump nothing can reach: one no branch
// targets that follows an unconditional transfer, such as a preheader
// that stopped falling through into its loop when BlockOrder rotated the
// loop and whose entries threadJumps then sent to the loop's test.
// Taken branches cost an extra cycle on the simulated processor, so
// block placement — and in particular trace-driven relayout (Section
// 4.2) — directly affects the measured cycle counts. blockStart need not
// be monotonic here: addFrame places trace-ordered code with the original
// indices.
func elideFallthroughs(s *selector) {
	n := len(s.code)
	// next[i] is the first surviving instruction at or after i; walking
	// backwards, a jump sees which of the instructions after it are gone.
	// Until the walk reaches it, next[i] < 0 marks an instruction some
	// branch targets.
	next := zeroed(s.ws.next, n+1)
	s.ws.next = next
	for i := range s.code {
		if in := &s.code[i]; in.Op.Is(target.Branches) {
			next[s.blockStart[in.Target]] = -1
		}
	}
	next[n] = n
	for i := n - 1; i >= 0; i-- {
		targeted := next[i] < 0
		next[i] = i
		in := &s.code[i]
		if in.Op != target.MJmp {
			continue
		}
		if t := s.blockStart[in.Target]; t > i && next[t] == next[i+1] ||
			!targeted && i > 0 && s.code[i-1].Op.Is(target.NoFallthrough) {
			next[i] = next[i+1]
		}
	}
	// Compact, turning next[i] into i's position in the surviving code.
	out := 0
	for i := 0; i < n; i++ {
		survives := next[i] == i
		next[i] = out
		if survives {
			s.code[out] = s.code[i]
			out++
		}
	}
	next[n] = out
	s.code = s.code[:out]
	for bi, p := range s.blockStart {
		s.blockStart[bi] = next[p]
	}
}

// layout assigns byte offsets, resolves PC-relative branch targets and
// encodes the final bytes. With blocks set it also returns the block
// table: each block's byte offset in the code, epilogue last.
func layout(s *selector, blocks bool) ([]byte, []target.Reloc, BlockTable) {
	d, ws := s.desc, s.ws
	// Code the target cannot encode as it stands is the translator's bug.
	if err := d.Check(s.code); err != nil {
		panic(err)
	}
	// Pass 1: measure offsets.
	offs := zeroed(ws.offs, len(s.code)+1)
	nRelocs := 0
	for i := range s.code {
		n, relocs := d.EncodedLen(&s.code[i])
		offs[i+1] = offs[i] + n
		nRelocs += relocs
	}
	ws.offs = offs
	var table BlockTable
	if blocks {
		table = make(BlockTable, 4*len(s.blockStart))
		for b, idx := range s.blockStart {
			binary.LittleEndian.PutUint32(table[4*b:], uint32(offs[idx]))
		}
	}
	// Pass 2: rewrite branch targets PC-relative and encode.
	code := make([]byte, 0, offs[len(s.code)])
	relocs := make([]target.Reloc, 0, nRelocs)
	for i := range s.code {
		in := s.code[i]
		if in.Op.Is(target.Branches) {
			delta := offs[s.blockStart[in.Target]] - offs[i]
			in.Target = int32(delta / d.RelBranchScale)
		}
		start := len(code)
		code, relocs = d.AppendEncoding(code, relocs, &in)
		if len(code)-start != offs[i+1]-offs[i] {
			panic(fmt.Sprintf("layout: instruction %d changed size during encoding", i))
		}
	}
	return code, relocs, table
}
