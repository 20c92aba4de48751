package target

// Desc describes one simulated I-ISA: its register convention, encoding
// properties, and timing model. The translator, register allocator,
// loader, and processor are all parameterised over it.
type Desc struct {
	Name     string
	WordSize int // constant-synthesis granularity: 8 = one imm64 movi, 4 = 16-bit chunks

	StackArgs   bool // arguments passed on the stack (vx86) vs registers
	HasFlags    bool // condition codes live in a flags register
	MemOperands bool // ALU ops may take a memory source operand

	// The operand ranges, the one place the selector, the register
	// allocator and the encoder read them: an ALU, compare or setcc
	// immediate lies in [-MaxImm-1, MaxImm] (ImmFits) and encodes in a
	// field just wide enough for it; a memory displacement the translator
	// emits lies in [-MaxDisp-1, MaxDisp] (DispFits), and one beyond goes
	// through the assembler temporary.
	MaxImm  int64
	MaxDisp int64

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
// (sethi/or chains), and a large allocatable file split between caller
// scratch and callee-saved registers. It models the paper's SPARC V9
// back-end.
//
// Integer file: r0 zero, r1 SP, r2 FP, r3 RA (link), r4–r9 args,
// r10 return, r11–r13 scratch, r14–r30 allocatable, r31 assembler temp.
// FP file: f0 return, f1–f6 args, f7–f9 scratch, f10–f24 allocatable.
var VSPARC = &Desc{
	Name:     "vsparc",
	WordSize: 4,

	MaxImm:  1<<12 - 1,
	MaxDisp: 1<<12 - 1,

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

	Allocatable: []Reg{
		14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
	},
	FPAllocatable: []Reg{
		FPBase + 10, FPBase + 11, FPBase + 12, FPBase + 13, FPBase + 14,
		FPBase + 15, FPBase + 16, FPBase + 17, FPBase + 18, FPBase + 19,
		FPBase + 20, FPBase + 21, FPBase + 22, FPBase + 23, FPBase + 24,
	},
}

// ImmFits reports whether v encodes as an ALU, compare or setcc
// immediate on d.
func (d *Desc) ImmFits(v int64) bool { return v >= -d.MaxImm-1 && v <= d.MaxImm }

// DispFits reports whether v is a memory displacement the translator may
// emit on d.
func (d *Desc) DispFits(v int64) bool { return v >= -d.MaxDisp-1 && v <= d.MaxDisp }

// immBytes is the width of d's immediate field: the narrowest of 2, 4
// and 8 bytes that holds every value ImmFits admits.
func (d *Desc) immBytes() int {
	switch {
	case d.MaxImm < 1<<15:
		return 2
	case d.MaxImm < 1<<31:
		return 4
	}
	return 8
}

// Cycles returns the virtual cost of one instruction. The model is
// deliberately simple and deterministic (a blocking in-order pipeline):
// memory traffic costs 2 cycles, multiplies 4, divides 12, FP
// arithmetic 4 (FP divide 12), conversions touching the FP unit 2,
// calls 2, everything else 1. The processor loop adds one extra cycle
// for every taken branch — the redirect penalty that makes trace-driven
// layout (Section 4.2) measurable.
func (d *Desc) Cycles(in *MInstr) uint64 {
	switch in.Op {
	case MLoad, MStore, MPush, MPop:
		return 2
	case MALU:
		if in.HasMem {
			// memory-operand ALU pays the load on top of the op
			return 2 + d.Cycles(&MInstr{Op: MALU, Alu: in.Alu, FP: in.FP})
		}
		switch in.Alu {
		case ADiv, ARem:
			return 12
		case AMul:
			return 4
		default:
			if in.FP {
				return 4
			}
			return 1
		}
	case MCvt:
		switch in.Cvt {
		case CvtIntToF, CvtFToInt, CvtFToF:
			return 2
		}
		return 1
	case MCall, MCallInd, MCallExt, MRet:
		return 2
	case MInvokePush, MUnwind:
		return 4
	default:
		return 1
	}
}
