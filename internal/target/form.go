package target

import "fmt"

// Field is one operand field of a machine instruction. An op's form
// lists its fields in encoding order, and every reader of an instruction
// walks that list: the encoder and decoder, String, Check, EncodedLen,
// Cycles, the register allocator's defs and uses and the processor's
// predecoder. An MInstr field no form field names is ignored by all of
// them, and decodes as NoReg (a register) or zero.
type Field uint8

const (
	FRd        Field = iota + 1 // Rd, one byte
	FRs1                        // Rs1, one byte
	FRs2                        // Rs2, one byte
	FImm                        // Imm, within Desc.ImmFits; its width is the narrowest of 2, 4 and 8 bytes that holds the range
	FMem                        // a memory operand's Base, Index and Scale, one byte each
	FDisp                       // a memory operand's Disp, four bytes; a symbol adds RelocDisp32
	FSize                       // Size, one byte
	FCond                       // Cnd, one byte
	FALU                        // Alu, one byte
	FCvt                        // Cvt, one byte
	FNArgs                      // NArgs, one byte
	FTarget                     // Target, a block (a PC-relative offset after layout), four bytes
	FCallee                     // Target of a direct call, four bytes; a symbol adds RelocCall
	FExtern                     // Target, an extern-table index, four bytes; a symbol adds RelocExt
	FConst                      // MMovRI's Imm: eight bytes, or with WordSize 4 Scale and a 16-bit chunk
	FImm32                      // Imm of a trap or a stack adjustment, four bytes
	FSetsFlags                  // SetsFlags: no bytes, a bit of the flags byte, legal where Desc.SetsFlagsFits

	// The two bytes every encoding opens with, which a DecodeError may
	// name.
	FOp
	FFlags

	// In a form only: the second source of a compare or setcc is FImm
	// when HasImm, else FRs2; an ALU op's may also be the memory operand
	// (FMem, FDisp) when HasMem. Instructions resolve them (shape).
	fSrc
	fSrcMem
)

var fieldNames = [...]string{
	FRd: "rd", FRs1: "rs1", FRs2: "rs2", FImm: "imm", FMem: "mem", FDisp: "disp",
	FSize: "size", FCond: "cond", FALU: "alu", FCvt: "cvt", FNArgs: "nargs",
	FTarget: "target", FCallee: "callee", FExtern: "extern", FConst: "const",
	FImm32: "imm32", FSetsFlags: "setsflags", FOp: "op", FFlags: "flags",
}

func (f Field) String() string { return fieldNames[f] }

// Class is what an op does to control flow and to its destination, as
// the translator's passes and the processor read it.
type Class uint8

const (
	DefinesRd     Class = 1 << iota // writes Rd
	Branches                        // Target names a block of the function
	Calls                           // calls a function that returns to the next instruction
	EndsBlock                       // may leave the straight line, or always traps: a predecoded block ends after it
	NoFallthrough                   // never continues at the next instruction
)

// shape is an op's form with its second source resolved: the fields an
// instruction of that op encodes, given its HasImm and HasMem, and its
// base cost.
type shape struct {
	fields []Field
	named  uint32 // bit f set for each of fields
	fixed  uint8  // encoded length, less the Desc-sized FImm and FConst
	cycles uint8  // Desc.Cycles before the ALU and conversion fields' part
}

// form describes one op: its class, and its shapes by second source
// (register, immediate, memory). An op without a second source has one
// shape three times.
type form struct {
	class  Class
	shapes [3]shape
}

const (
	srcReg = iota
	srcImm
	srcMem
)

// newForm builds an op's form from its fields in encoding order, fSrc
// or fSrcMem standing for the second source.
func newForm(class Class, cycles uint8, fields ...Field) form {
	fm := form{class: class}
	for k := range fm.shapes {
		sh := &fm.shapes[k]
		sh.cycles, sh.fixed = cycles, 2
		for _, f := range fields {
			switch {
			case f == fSrc && k == srcImm, f == fSrcMem && k == srcImm:
				sh.fields = append(sh.fields, FImm)
			case f == fSrcMem && k == srcMem:
				// A memory-operand ALU op pays the load on top of the op.
				sh.fields = append(sh.fields, FMem, FDisp)
				sh.cycles += 2
			case f == fSrc, f == fSrcMem:
				sh.fields = append(sh.fields, FRs2)
			default:
				sh.fields = append(sh.fields, f)
			}
		}
		for _, f := range sh.fields {
			sh.named |= 1 << f
			sh.fixed += fieldWidth[f]
		}
	}
	return fm
}

// opForms is the one description of every op. The base cycle costs are
// the timing model's (Desc.Cycles): memory traffic 2, calls and returns
// 2, invoke frames and unwinds 4, everything else 1, an ALU op's cost
// coming from its operation.
var opForms = [mOpCount]form{
	MNop:        newForm(0, 1),
	MMovRR:      newForm(DefinesRd, 1, FRd, FRs1),
	MMovRI:      newForm(DefinesRd, 1, FRd, FConst),
	MLoad:       newForm(DefinesRd, 2, FRd, FMem, FSize, FDisp),
	MStore:      newForm(0, 2, FRs1, FMem, FSize, FDisp),
	MLea:        newForm(DefinesRd, 1, FRd, FMem, FDisp),
	MALU:        newForm(DefinesRd, 0, FALU, FSize, FRd, FRs1, fSrcMem, FSetsFlags),
	MCmp:        newForm(0, 1, FRs1, fSrc),
	MSetCC:      newForm(DefinesRd, 1, FCond, FRd, FRs1, fSrc),
	MJmp:        newForm(Branches|EndsBlock|NoFallthrough, 1, FTarget),
	MJcc:        newForm(Branches|EndsBlock, 1, FCond, FRs1, FTarget),
	MCall:       newForm(Calls|EndsBlock, 2, FCallee),
	MCallInd:    newForm(Calls|EndsBlock, 2, FRs1),
	MCallExt:    newForm(Calls|EndsBlock, 2, FNArgs, FExtern),
	MRet:        newForm(EndsBlock|NoFallthrough, 2),
	MPush:       newForm(0, 2, FRs1),
	MPop:        newForm(DefinesRd, 2, FRd),
	MCvt:        newForm(DefinesRd, 1, FCvt, FSize, FRd, FRs1),
	MInvokePush: newForm(Branches, 4, FTarget),
	MInvokePop:  newForm(0, 1),
	MUnwind:     newForm(EndsBlock|NoFallthrough, 4),
	MTrap:       newForm(EndsBlock, 1, FImm32),
	MAdjSP:      newForm(0, 1, FImm32),
}

// Is reports whether op has any of the class bits c.
func (op MOp) Is(c Class) bool { return opForms[op].class&c != 0 }

// shape is in's shape: HasImm selects the immediate source, else HasMem
// the memory source of an op that has one.
func (in *MInstr) shape() *shape {
	fm := &opForms[in.Op]
	switch {
	case in.HasImm:
		return &fm.shapes[srcImm]
	case in.HasMem:
		return &fm.shapes[srcMem]
	}
	return &fm.shapes[srcReg]
}

// Fields returns in's operand fields in encoding order.
func (in *MInstr) Fields() []Field { return in.shape().fields }

// reg is the register field f (FRd, FRs1 or FRs2) of in.
func (in *MInstr) reg(f Field) *Reg {
	switch f {
	case FRd:
		return &in.Rd
	case FRs1:
		return &in.Rs1
	}
	return &in.Rs2
}

// small is the one-byte field f (FSize, FCond, FALU, FCvt or FNArgs) of
// in.
func (in *MInstr) small(f Field) *uint8 {
	switch f {
	case FCond:
		return (*uint8)(&in.Cnd)
	case FALU:
		return (*uint8)(&in.Alu)
	case FCvt:
		return (*uint8)(&in.Cvt)
	case FNArgs:
		return &in.NArgs
	}
	return &in.Size
}

// fieldLimit bounds the values of the one-byte fields.
var fieldLimit = [...]int{FSize: 256, FCond: int(condCount), FALU: int(aluOpCount),
	FCvt: int(cvtOpCount), FNArgs: 256}

// Def returns the register in writes, or NoReg.
func (in *MInstr) Def() Reg {
	if in.Op.Is(DefinesRd) {
		return in.Rd
	}
	return NoReg
}

// AppendUses appends the registers in reads to out, in field order.
func (in *MInstr) AppendUses(out []Reg) []Reg {
	add := func(r Reg) {
		if r != NoReg {
			out = append(out, r)
		}
	}
	for _, f := range in.Fields() {
		switch f {
		case FRs1, FRs2:
			add(*in.reg(f))
		case FMem:
			add(in.Base)
			add(in.Index)
		case FConst:
			if in.HasImm { // vsparc merges a chunk into Rd
				add(in.Rd)
			}
		}
	}
	return out
}

// fieldLen is the encoded width of f on d: the immediate field is the
// narrowest of 2, 4 and 8 bytes that holds d's range, a constant move's
// a 64-bit constant or a shift (Scale) and a 16-bit chunk.
func (d *Desc) fieldLen(f Field) int {
	switch f {
	case FImm:
		return d.immLen()
	case FConst:
		if d.WordSize == 4 {
			return 3
		}
		return 8
	}
	return int(fieldWidth[f])
}

// immLen is the width of d's immediate field.
func (d *Desc) immLen() int {
	switch {
	case d.MaxImm >= 1<<31:
		return 8
	case d.MaxImm >= 1<<15:
		return 4
	}
	return 2
}

// fieldWidth is the encoded width of the fields that are the same on
// every target.
var fieldWidth = [...]uint8{FRd: 1, FRs1: 1, FRs2: 1, FMem: 3, FDisp: 4, FSize: 1,
	FCond: 1, FALU: 1, FCvt: 1, FNArgs: 1, FTarget: 4, FCallee: 4, FExtern: 4, FImm32: 4,
	FSetsFlags: 0}

// reloc reports the relocation in's symbol puts on its field f, if any,
// and the slot's offset in the field.
func (d *Desc) reloc(in *MInstr, f Field) (kind RelocKind, off int, ok bool) {
	switch {
	case in.Sym == "":
	case f == FDisp:
		return RelocDisp32, 0, true
	case f == FCallee:
		return RelocCall, 0, true
	case f == FExtern:
		return RelocExt, 0, true
	case f == FConst && d.WordSize != 4:
		return RelocAbs, 0, true
	case f == FConst && in.HasImm:
		return RelocLo16, 1, true // the chunk, after Scale
	case f == FConst:
		return RelocHi16, 1, true
	}
	return 0, 0, false
}

// EncodedLen returns the length of in's encoding on d and the number of
// relocations it carries: a function of in's shape, never of its
// displacement, immediate or target values.
func (d *Desc) EncodedLen(in *MInstr) (n, relocs int) {
	sh := in.shape()
	n = int(sh.fixed)
	if sh.named&(1<<FImm) != 0 {
		n += d.fieldLen(FImm)
	}
	if sh.named&(1<<FConst) != 0 {
		n += d.fieldLen(FConst)
	}
	if in.Sym != "" && sh.named&(1<<FDisp|1<<FCallee|1<<FExtern|1<<FConst) != 0 {
		relocs = 1
	}
	return n, relocs
}

// Rule names what a CheckError found wrong.
type Rule string

const (
	RuleReg   Rule = "register outside the target's file"
	RuleValue Rule = "no such condition, ALU operation or conversion"
	RuleSize  Rule = "size not 1, 2, 4 or 8"
	RuleImm   Rule = "immediate outside the target's range"
	RuleAddr  Rule = "not one of the target's addressing forms"
	RuleFlags Rule = "sets the flags where the target's op leaves them undefined"
)

// CheckError reports the first instruction of a function's code that
// breaks one of its target's rules.
type CheckError struct {
	Target string
	Index  int // the instruction's position in the code
	Instr  MInstr
	Field  Field
	Rule   Rule
}

func (e *CheckError) Error() string {
	return fmt.Sprintf("target: %s: instruction %d (%s): %s: %s",
		e.Target, e.Index, e.Instr.String(), e.Field, e.Rule)
}

// Check reports the first instruction of code that d cannot encode as
// it stands: a named register outside d's file, a condition, ALU
// operation or conversion that does not exist, a size other than 1, 2,
// 4 or 8, an immediate outside d's range, a memory operand that is not
// one of d's addressing forms, or flags set where SetsFlagsFits says
// they cannot be. It reads only the fields each instruction's form
// names.
func (d *Desc) Check(code []MInstr) error {
	for i := range code {
		in := &code[i]
		named := in.shape().named
		var f Field
		var broken Rule
		switch {
		case named&(1<<FRd) != 0 && !d.inFile(in.Rd):
			f, broken = FRd, RuleReg
		case named&(1<<FRs1) != 0 && !d.inFile(in.Rs1):
			f, broken = FRs1, RuleReg
		case named&(1<<FRs2) != 0 && !d.inFile(in.Rs2):
			f, broken = FRs2, RuleReg
		case named&(1<<FMem) != 0 && !(d.inFile(in.Base) && d.inFile(in.Index)):
			f, broken = FMem, RuleReg
		case named&(1<<FMem) != 0 && !d.AddrFits(Addr{Sym: in.Sym != "", Index: in.Index != NoReg,
			Scale: int64(in.Scale), Disp: int64(in.Disp)}):
			f, broken = FMem, RuleAddr
		case named&(1<<FImm) != 0 && !d.ImmFits(in.Imm):
			f, broken = FImm, RuleImm
		case named&(1<<FSize) != 0 && in.Size != 1 && in.Size != 2 && in.Size != 4 && in.Size != 8:
			f, broken = FSize, RuleSize
		case named&(1<<FCond) != 0 && in.Cnd >= condCount:
			f, broken = FCond, RuleValue
		case named&(1<<FALU) != 0 && in.Alu >= aluOpCount:
			f, broken = FALU, RuleValue
		case named&(1<<FCvt) != 0 && in.Cvt >= cvtOpCount:
			f, broken = FCvt, RuleValue
		case named&(1<<FSetsFlags) != 0 && in.SetsFlags && !d.SetsFlagsFits(in):
			f, broken = FSetsFlags, RuleFlags
		}
		if broken != "" {
			return &CheckError{Target: d.Name, Index: i, Instr: *in, Field: f, Rule: broken}
		}
	}
	return nil
}

// inFile reports whether r is NoReg or one of d's physical registers.
func (d *Desc) inFile(r Reg) bool {
	switch {
	case r == NoReg:
		return true
	case r.IsFP():
		return int(r-FPBase) < d.FPRegs
	}
	return int(r) < d.IntRegs
}
