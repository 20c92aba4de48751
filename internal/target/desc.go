package target

import "slices"

// Desc describes one simulated I-ISA: its register convention, encoding
// properties, and timing model. The translator, register allocator,
// loader, and processor are all parameterised over it.
type Desc struct {
	Name     string
	WordSize int // constant-synthesis granularity: 8 = one imm64 movi, 4 = 16-bit chunks

	StackArgs   bool // arguments passed on the stack (vx86) vs registers
	HasFlags    bool // condition codes live in a flags register
	MemOperands bool // ALU ops may take a memory source operand, and lea computes an address

	// The operand ranges, the one place the selector, the register
	// allocator and the encoder read them: an ALU, compare or setcc
	// immediate lies in [-MaxImm-1, MaxImm] (ImmFits) and encodes in a
	// field just wide enough for it; a memory displacement the translator
	// emits lies in [-MaxDisp-1, MaxDisp] (DispFits), and one beyond goes
	// through the assembler temporary.
	MaxImm  int64
	MaxDisp int64

	// The addressing forms, read through AddrFits: a memory operand is
	// [base + disp] with disp within DispFits, or, when IndexScales is
	// not empty, [base + index*scale + disp] with scale one of
	// IndexScales and disp within DispFits if IndexDisp, else 0. With
	// AbsAddr a global's symbol may stand in for the base: the loader
	// adds its address to disp (RelocDisp32).
	IndexScales []int64
	IndexDisp   bool
	AbsAddr     bool

	// IntRegs and FPRegs size the register files: r0..IntRegs-1 and
	// f0..FPRegs-1 (Check).
	IntRegs, FPRegs int

	RelBranchScale  int // byte scale of MJmp/MJcc/MInvokePush targets
	CallTargetScale int // byte scale of MCall targets

	SP, FP   Reg
	RetReg   Reg
	FPRetReg Reg

	ArgRegs   []Reg
	FPArgRegs []Reg

	Scratch   [3]Reg // assembler/spill temporaries (integer)
	FPScratch [3]Reg // assembler/spill temporaries (floating point)

	// Allocatable/FPAllocatable are the callee-saved linear-scan pools:
	// the prologue saves exactly the members a function uses, so values
	// in them survive calls. CallerSaved/FPCallerSaved are allocatable
	// registers that calls clobber; the allocator prefers them for
	// values whose live range contains no call. The four pools must be
	// disjoint from each other and from SP/FP/RetReg/Scratch.
	Allocatable   []Reg
	FPAllocatable []Reg
	CallerSaved   []Reg
	FPCallerSaved []Reg
}

// VX86 is the CISC-flavoured target: 32-bit ALU and compare immediates
// and displacements, 64-bit constant moves, stack-passed arguments,
// flags-based compares, memory operands, and a 16-register
// file split x86-64 style between caller-saved and callee-saved
// allocatable registers. It models the paper's IA-32 back-end once the
// JIT applies real (if simple) register allocation.
//
// Integer file: r0 return + scratch, r1–r2 scratch, r3 caller-saved,
// r4 SP, r5 FP, r6–r13 callee-saved, r14–r15 caller-saved.
// FP file: f0 return + scratch, f1–f2 scratch, f3–f4 caller-saved,
// f5–f12 callee-saved.
var VX86 = &Desc{
	Name:     "vx86",
	WordSize: 8,

	StackArgs:   true,
	HasFlags:    true,
	MemOperands: true,
	MaxImm:      1<<31 - 1,
	MaxDisp:     1<<31 - 1,
	IndexScales: []int64{1, 2, 4, 8},
	IndexDisp:   true,
	AbsAddr:     true,
	IntRegs:     16,
	FPRegs:      13,

	RelBranchScale:  1,
	CallTargetScale: 1,

	SP:       Reg(4),
	FP:       Reg(5),
	RetReg:   Reg(0),
	FPRetReg: FPBase,

	Scratch:   [3]Reg{Reg(0), Reg(1), Reg(2)},
	FPScratch: [3]Reg{FPBase, FPBase + 1, FPBase + 2},

	Allocatable: []Reg{6, 7, 8, 9, 10, 11, 12, 13},
	FPAllocatable: []Reg{
		FPBase + 5, FPBase + 6, FPBase + 7, FPBase + 8,
		FPBase + 9, FPBase + 10, FPBase + 11, FPBase + 12,
	},
	CallerSaved:   []Reg{3, 14, 15},
	FPCallerSaved: []Reg{FPBase + 3, FPBase + 4},
}

// VSPARC is the RISC-flavoured target: register-passed arguments,
// compare-into-register (no flags), SPARC V9's signed 13-bit immediate
// (simm13, [-4096, 4095]) in every ALU op, setcc and memory
// displacement, wider constants synthesized from 16-bit chunks
// (sethi/or chains), and a large allocatable file split between
// caller-saved and callee-saved registers. It models the paper's SPARC
// V9 back-end, with three more of SPARC V9's forms: a conditional branch
// tests one register against zero under any condition (BPr: brz, brlz,
// brgez, ...), a memory operand is [rs1 + rs2] or [rs1 + simm13] and
// never scaled, and a leaf routine keeps its return address in the link
// register, as it keeps %o7.
//
// Integer file: r0 zero, r1 SP, r2 FP, r3 RA (link), r4–r9 args,
// r10 return, r11–r13 scratch, r14–r21 caller-saved, r22–r30
// callee-saved, r31 assembler temp. FP file: f0 return, f1–f6 args,
// f7–f9 scratch, f10–f16 caller-saved, f17–f24 callee-saved.
//
// The caller-saved part follows SPARC V9, where %g and %o are
// caller-saved: a value no call crosses takes one, so a leaf function
// with at most 8 integer values live at once saves no register in its
// prologue. The split of 8 is measured: 3, 4, 6, 8, 10 and 12
// caller-saved registers (FP one fewer) give 286.6, 285.7, 284.5, 283.1,
// 282.3 and 282.5 M suite cycles, and 8 gives the fewest instructions
// and bytes (EXPERIMENTS.md, "Translated code stops redoing work").
var VSPARC = &Desc{
	Name:     "vsparc",
	WordSize: 4,

	MaxImm:      1<<12 - 1,
	MaxDisp:     1<<12 - 1,
	IndexScales: []int64{1},
	IntRegs:     32,
	FPRegs:      25,

	RelBranchScale:  1,
	CallTargetScale: 1,

	SP:       Reg(1),
	FP:       Reg(2),
	RetReg:   Reg(10),
	FPRetReg: FPBase,

	ArgRegs:   []Reg{4, 5, 6, 7, 8, 9},
	FPArgRegs: []Reg{FPBase + 1, FPBase + 2, FPBase + 3, FPBase + 4, FPBase + 5, FPBase + 6},

	Scratch:   [3]Reg{Reg(11), Reg(12), Reg(13)},
	FPScratch: [3]Reg{FPBase + 7, FPBase + 8, FPBase + 9},

	Allocatable: []Reg{22, 23, 24, 25, 26, 27, 28, 29, 30},
	FPAllocatable: []Reg{
		FPBase + 17, FPBase + 18, FPBase + 19, FPBase + 20,
		FPBase + 21, FPBase + 22, FPBase + 23, FPBase + 24,
	},
	CallerSaved: []Reg{14, 15, 16, 17, 18, 19, 20, 21},
	FPCallerSaved: []Reg{
		FPBase + 10, FPBase + 11, FPBase + 12, FPBase + 13,
		FPBase + 14, FPBase + 15, FPBase + 16,
	},
}

// ImmFits reports whether v encodes as an ALU, compare or setcc
// immediate on d.
func (d *Desc) ImmFits(v int64) bool { return v >= -d.MaxImm-1 && v <= d.MaxImm }

// DispFits reports whether v is a memory displacement the translator may
// emit on d.
func (d *Desc) DispFits(v int64) bool { return v >= -d.MaxDisp-1 && v <= d.MaxDisp }

// Addr is the shape of a memory operand, as AddrFits judges it:
// whether a symbol stands in for its base, whether it has an index
// register and that register's scale, and its displacement.
type Addr struct {
	Sym   bool
	Index bool
	Scale int64
	Disp  int64
}

// AddrFits reports whether a is one of d's addressing forms: vx86 has
// [base + index*{1,2,4,8} + disp32] and absolute [sym + ...], vsparc
// SPARC V9's [base + index] and [base + simm13].
func (d *Desc) AddrFits(a Addr) bool {
	if a.Sym && !d.AbsAddr {
		return false
	}
	if !a.Index {
		return d.DispFits(a.Disp)
	}
	return slices.Contains(d.IndexScales, a.Scale) &&
		(a.Disp == 0 || d.IndexDisp && d.DispFits(a.Disp))
}

// Cycles returns the virtual cost of one instruction. The model is
// deliberately simple and deterministic (a blocking in-order pipeline):
// memory traffic costs 2 cycles, multiplies 4, divides 12, FP
// arithmetic 4 (FP divide 12), conversions touching the FP unit 2,
// calls 2, everything else 1. The processor loop adds one extra cycle
// for every taken branch — the redirect penalty that makes trace-driven
// layout (Section 4.2) measurable.
func (d *Desc) Cycles(in *MInstr) uint64 {
	sh := in.shape()
	c, alu := uint64(sh.cycles), sh.named&(1<<FALU) != 0
	switch {
	case alu && (in.Alu == ADiv || in.Alu == ARem):
		c += 12
	case alu && (in.Alu == AMul || in.FP):
		c += 4
	case alu:
		c++
	case sh.named&(1<<FCvt) != 0 && in.Cvt != CvtIntExt && in.Cvt != CvtBits:
		c++
	}
	return c
}
