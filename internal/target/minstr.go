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

// MInstr is one machine-IR instruction. Operand fields are interpreted
// per opcode; unused register fields hold NoReg. Disp/Base/Index/Scale
// form a memory operand for MLoad/MStore/MLea and (on targets with
// MemOperands) the memory source of an MALU with HasMem set.
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

// String renders the instruction for diagnostics and panics.
func (in *MInstr) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", in.Op)
	if in.Op == MALU {
		fmt.Fprintf(&b, ".%s", in.Alu)
	}
	if in.Op == MJcc || in.Op == MSetCC {
		fmt.Fprintf(&b, ".%s", in.Cnd)
	}
	if in.Op == MCvt {
		fmt.Fprintf(&b, ".%s", in.Cvt)
	}
	if in.Op == MMovRI && in.HasImm {
		b.WriteString(".or") // vsparc: merge a chunk into Rd
	}
	if in.FP {
		b.WriteString(".f")
	}
	if in.Size != 0 {
		fmt.Fprintf(&b, ".%d", in.Size)
	}
	for _, r := range []Reg{in.Rd, in.Rs1, in.Rs2} {
		if r != NoReg {
			fmt.Fprintf(&b, " %s", r)
		}
	}
	mem := in.Base != NoReg || in.Index != NoReg
	if in.Op == MLoad || in.Op == MStore || in.Op == MLea {
		// A symbol on a memory operand is its absolute base.
		mem = mem || in.Sym != ""
	}
	if mem {
		base := in.Base.String()
		if in.Sym != "" {
			base = "@" + in.Sym
		}
		fmt.Fprintf(&b, " [%s+%s*%d%+d]", base, in.Index, in.Scale, in.Disp)
	}
	switch {
	case in.Op == MMovRI && in.Sym == "":
		// A constant move's immediate is its operand, in either vsparc
		// form; Scale shifts a vsparc chunk.
		fmt.Fprintf(&b, " $%d", in.Imm)
		if in.Scale != 0 {
			fmt.Fprintf(&b, "<<%d", 16*int(in.Scale))
		}
	case in.HasImm:
		fmt.Fprintf(&b, " $%d", in.Imm)
	}
	if in.Sym != "" && !mem {
		fmt.Fprintf(&b, " @%s", in.Sym)
	}
	switch in.Op {
	case MJmp, MJcc, MCall, MCallExt, MInvokePush:
		fmt.Fprintf(&b, " ->%d", in.Target)
	case MTrap, MAdjSP:
		fmt.Fprintf(&b, " #%d", in.Imm)
	}
	return b.String()
}
