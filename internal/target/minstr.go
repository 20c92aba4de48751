package target

import (
	"fmt"
	"strings"
)

// MOp is a machine-IR opcode. The set is small enough to decode with a
// single table lookup yet rich enough to express both back-ends; see
// the per-target descriptors for which forms each target emits.
type MOp uint8

const (
	MNop MOp = iota
	MMovRR
	MMovRI
	MLoad
	MStore
	MLea
	MALU
	MCmp
	MSetCC
	MJmp
	MJcc
	MCall
	MCallInd
	MCallExt
	MRet
	MPush
	MPop
	MCvt
	MInvokePush
	MInvokePop
	MUnwind
	MTrap
	MAdjSP

	mOpCount // sentinel for decode validation
)

var mOpNames = [...]string{
	MNop:        "nop",
	MMovRR:      "mov",
	MMovRI:      "movi",
	MLoad:       "load",
	MStore:      "store",
	MLea:        "lea",
	MALU:        "alu",
	MCmp:        "cmp",
	MSetCC:      "setcc",
	MJmp:        "jmp",
	MJcc:        "jcc",
	MCall:       "call",
	MCallInd:    "calli",
	MCallExt:    "callext",
	MRet:        "ret",
	MPush:       "push",
	MPop:        "pop",
	MCvt:        "cvt",
	MInvokePush: "invokepush",
	MInvokePop:  "invokepop",
	MUnwind:     "unwind",
	MTrap:       "trap",
	MAdjSP:      "adjsp",
}

func (op MOp) String() string {
	if int(op) < len(mOpNames) && mOpNames[op] != "" {
		return mOpNames[op]
	}
	return fmt.Sprintf("mop(%d)", uint8(op))
}

// ALUOp selects the arithmetic/logic operation of an MALU instruction.
type ALUOp uint8

const (
	AAdd ALUOp = iota
	ASub
	AMul
	ADiv
	ARem
	AAnd
	AOr
	AXor
	AShl
	AShr

	aluOpCount
)

var aluNames = [...]string{
	AAdd: "add", ASub: "sub", AMul: "mul", ADiv: "div", ARem: "rem",
	AAnd: "and", AOr: "or", AXor: "xor", AShl: "shl", AShr: "shr",
}

func (a ALUOp) String() string {
	if int(a) < len(aluNames) {
		return aluNames[a]
	}
	return fmt.Sprintf("alu(%d)", uint8(a))
}

// Cond is a comparison condition for MJcc/MSetCC.
type Cond uint8

const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondGE
	CondGT
	CondLE

	condCount
)

var condNames = [...]string{
	CondEQ: "eq", CondNE: "ne", CondLT: "lt", CondGE: "ge", CondGT: "gt", CondLE: "le",
}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// CvtOp selects the conversion performed by MCvt.
type CvtOp uint8

const (
	CvtIntExt CvtOp = iota // integer widen/narrow (Signed selects sext)
	CvtIntToF              // integer -> float of Size bytes
	CvtFToInt              // float -> integer of Size bytes
	CvtFToF                // float precision change to Size bytes
	CvtBits                // raw bit reinterpretation

	cvtOpCount
)

var cvtNames = [...]string{
	CvtIntExt: "intext", CvtIntToF: "itof", CvtFToInt: "ftoi", CvtFToF: "ftof", CvtBits: "bits",
}

func (c CvtOp) String() string {
	if int(c) < len(cvtNames) {
		return cvtNames[c]
	}
	return fmt.Sprintf("cvt(%d)", uint8(c))
}

// MInstr is one machine-IR instruction. Which operand fields it has is
// its op's form (Fields, form.go); every reader ignores the others.
type MInstr struct {
	Op  MOp
	Alu ALUOp
	Cnd Cond
	Cvt CvtOp

	Rd    Reg // destination
	Rs1   Reg // first source
	Rs2   Reg // second source
	Base  Reg // memory base
	Index Reg // memory index (NoReg if absent)

	Scale uint8 // index scale for memory operands; shift count (x16) for vsparc MMovRI
	Size  uint8 // access/operation width in bytes (1,2,4,8)

	Disp   int32 // memory displacement
	Imm    int64 // immediate (valid when HasImm, and for MTrap/MAdjSP)
	Target int32 // branch/call target: block index pre-layout, scaled delta or address after
	NArgs  uint8 // argument count for MCallExt

	HasImm bool // Imm is a live operand
	HasMem bool // the MALU source is the memory operand
	Signed bool // signed variant (compares, shifts, div, extensions)
	FP     bool // floating-point variant
	NoTrap bool // suppress trapping behaviour (speculative loads)

	Sym string // symbol for MCall/MCallExt and symbolic MMovRI
}

// String renders the instruction for diagnostics and panics: its op,
// then the fields its form names and nothing else. A register field
// holding NoReg is absent (a vx86 setcc or jcc reads the flags, not a
// register).
func (in *MInstr) String() string {
	var b strings.Builder
	b.WriteString(in.OpName())
	if in.Op >= mOpCount {
		return b.String()
	}
	sh := in.shape()
	if sh.named&(1<<FCond) != 0 {
		fmt.Fprintf(&b, ".%s", in.Cnd)
	}
	if sh.named&(1<<FCvt) != 0 {
		fmt.Fprintf(&b, ".%s", in.Cvt)
	}
	if sh.named&(1<<FConst) != 0 && in.HasImm {
		b.WriteString(".or") // vsparc: merge a chunk into Rd
	}
	if in.FP {
		b.WriteString(".f")
	}
	if sh.named&(1<<FSize) != 0 && in.Size != 0 {
		fmt.Fprintf(&b, ".%d", in.Size)
	}
	for _, f := range sh.fields {
		switch f {
		case FRd, FRs1, FRs2:
			if r := *in.reg(f); r != NoReg {
				fmt.Fprintf(&b, " %s", r)
			}
		case FImm:
			fmt.Fprintf(&b, " $%d", in.Imm)
		case FMem:
			base := in.Base.String()
			if in.Sym != "" {
				// A symbol on a memory operand is its absolute base.
				base = "@" + in.Sym
			}
			fmt.Fprintf(&b, " [%s+%s*%d%+d]", base, in.Index, in.Scale, in.Disp)
		case FConst:
			switch {
			case in.Sym != "":
				fmt.Fprintf(&b, " @%s", in.Sym)
			case in.Scale != 0: // Scale shifts a vsparc chunk
				fmt.Fprintf(&b, " $%d<<%d", in.Imm, 16*int(in.Scale))
			default:
				fmt.Fprintf(&b, " $%d", in.Imm)
			}
		case FCallee, FExtern:
			if in.Sym != "" {
				fmt.Fprintf(&b, " @%s", in.Sym)
			}
			fmt.Fprintf(&b, " ->%d", in.Target)
		case FTarget:
			fmt.Fprintf(&b, " ->%d", in.Target)
		case FImm32:
			fmt.Fprintf(&b, " #%d", in.Imm)
		}
	}
	return b.String()
}

// aluOpNames are the names OpName gives an MALU, one per operation.
var aluOpNames = func() (names [aluOpCount]string) {
	for a := range names {
		names[a] = "alu." + ALUOp(a).String()
	}
	return names
}()

// OpName names what in does as String names it: its op, and an ALU op's
// operation (alu.add). A decoded instruction's name is not allocated.
func (in *MInstr) OpName() string {
	switch {
	case in.Op != MALU:
		return in.Op.String()
	case in.Alu < aluOpCount:
		return aluOpNames[in.Alu]
	}
	return "alu." + in.Alu.String()
}
