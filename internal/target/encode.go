package target

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// RelocKind classifies a load-time fixup in encoded code.
type RelocKind uint8

const (
	// RelocAbs patches an 8-byte absolute immediate (vx86 MMovRI $sym).
	RelocAbs RelocKind = iota
	// RelocCall patches the 4-byte target of a direct MCall with the
	// callee's code address (scaled by CallTargetScale).
	RelocCall
	// RelocExt patches the 4-byte target of an MCallExt with the
	// extern-table index of the symbol.
	RelocExt
	// RelocHi16 patches a 2-byte slot with bits 16..31 of the address
	// (vsparc sethi half of a symbolic constant).
	RelocHi16
	// RelocLo16 patches a 2-byte slot with bits 0..15 of the address
	// (vsparc or half).
	RelocLo16
	// RelocDisp32 adds the address to the 4-byte displacement of a vx86
	// MLoad, MStore or MLea that carries a symbol: the encoded
	// displacement is the addend, and the sum must fit an int32.
	RelocDisp32
)

// RelocRangeError is a relocation whose patched value does not fit its
// slot: an absolute displacement (RelocDisp32) outside the int32 range.
// Patch refuses it rather than truncate, and the loader fails the
// install.
type RelocRangeError struct {
	Kind  RelocKind
	Value int64 // what the slot would have to hold
}

func (e *RelocRangeError) Error() string {
	return fmt.Sprintf("target: relocation kind %d: value %#x does not fit its slot", e.Kind, e.Value)
}

// Reloc is one fixup the loader must apply after placing code. Offset is
// relative to the start of the instruction that produced it; layout adds
// the instruction's position. Fields are exported so native objects
// (codegen.NativeFunc) serialize through encoding/gob for the
// storage-API code cache (Section 4.1).
type Reloc struct {
	Offset uint32
	Kind   RelocKind
	Sym    string
}

// Encoded-flags bits (byte 1 of every instruction).
const (
	fHasImm = 1 << iota
	fHasMem
	fSigned
	fFP
	fNoTrap
)

// encReg packs a register operand into one byte.
func encReg(r Reg) byte {
	switch {
	case r == NoReg:
		return 0xFF
	case r.IsFP():
		return 0x40 | byte(r-FPBase)
	default:
		return byte(r)
	}
}

func decReg(b byte) Reg {
	switch {
	case b == 0xFF:
		return NoReg
	case b&0x40 != 0:
		return FPBase + Reg(b&0x3F)
	default:
		return Reg(b)
	}
}

func encFlags(in *MInstr) byte {
	var f byte
	if in.HasImm {
		f |= fHasImm
	}
	if in.HasMem {
		f |= fHasMem
	}
	if in.Signed {
		f |= fSigned
	}
	if in.FP {
		f |= fFP
	}
	if in.NoTrap {
		f |= fNoTrap
	}
	return f
}

// Encode appends the byte encoding of one instruction to code and
// returns the extended slice plus any relocations (offsets relative to
// the appended instruction's first byte). The encoded length of an
// instruction is a pure function of its operand shape — never of
// displacement or target *values* — so the translator's measure and
// emit passes always agree, and every encoding fits the processor's
// 16-byte fetch window.
func (d *Desc) Encode(in *MInstr, code []byte) ([]byte, []Reloc) {
	start := len(code)
	code, relocs := d.AppendEncoding(code, nil, in)
	for i := range relocs {
		relocs[i].Offset -= uint32(start)
	}
	return code, relocs
}

// AppendEncoding is Encode for a caller that keeps the relocations of
// many instructions: it appends in's encoding to code and its
// relocations to relocs, their offsets relative to code's first byte.
func (d *Desc) AppendEncoding(code []byte, relocs []Reloc, in *MInstr) ([]byte, []Reloc) {
	start := len(code)
	put8 := func(b byte) { code = append(code, b) }
	putReg := func(r Reg) { put8(encReg(r)) }
	put16 := func(v uint16) { code = binary.LittleEndian.AppendUint16(code, v) }
	put32 := func(v uint32) { code = binary.LittleEndian.AppendUint32(code, v) }
	put64 := func(v uint64) { code = binary.LittleEndian.AppendUint64(code, v) }
	rel := func(kind RelocKind) {
		relocs = append(relocs, Reloc{Offset: uint32(len(code)), Kind: kind, Sym: in.Sym})
	}
	// An ALU, compare or setcc immediate outside the target's range is
	// the translator's bug: refuse it rather than truncate it.
	putImm := func() {
		if !d.ImmFits(in.Imm) {
			panic(fmt.Sprintf("target: %s: immediate %d outside %s's range [%d, %d]",
				in.String(), in.Imm, d.Name, -d.MaxImm-1, d.MaxImm))
		}
		switch d.immBytes() {
		case 2:
			put16(uint16(in.Imm))
		case 4:
			put32(uint32(in.Imm))
		default:
			put64(uint64(in.Imm))
		}
	}

	put8(byte(in.Op))
	put8(encFlags(in))
	switch in.Op {
	case MNop, MRet, MInvokePop, MUnwind:
		// no operands
	case MMovRR:
		putReg(in.Rd)
		putReg(in.Rs1)
	case MMovRI:
		putReg(in.Rd)
		if d.WordSize == 4 {
			put8(in.Scale)
			if in.Sym != "" {
				if in.HasImm {
					rel(RelocLo16)
				} else {
					rel(RelocHi16)
				}
			}
			put16(uint16(in.Imm))
		} else {
			if in.Sym != "" {
				rel(RelocAbs)
			}
			put64(uint64(in.Imm))
		}
	case MLoad, MStore, MLea:
		if in.Op == MStore {
			putReg(in.Rs1)
		} else {
			putReg(in.Rd)
		}
		putReg(in.Base)
		putReg(in.Index)
		put8(in.Scale)
		if in.Op != MLea {
			put8(in.Size)
		}
		if in.Sym != "" {
			rel(RelocDisp32)
		}
		put32(uint32(in.Disp))
	case MALU:
		put8(byte(in.Alu))
		put8(in.Size)
		putReg(in.Rd)
		putReg(in.Rs1)
		switch {
		case in.HasImm:
			putImm()
		case in.HasMem:
			putReg(in.Base)
			putReg(in.Index)
			put8(in.Scale)
			put32(uint32(in.Disp))
		default:
			putReg(in.Rs2)
		}
	case MCmp:
		putReg(in.Rs1)
		if in.HasImm {
			putImm()
		} else {
			putReg(in.Rs2)
		}
	case MSetCC:
		put8(byte(in.Cnd))
		putReg(in.Rd)
		putReg(in.Rs1)
		if in.HasImm {
			putImm()
		} else {
			putReg(in.Rs2)
		}
	case MJmp:
		put32(uint32(in.Target))
	case MJcc:
		put8(byte(in.Cnd))
		putReg(in.Rs1)
		put32(uint32(in.Target))
	case MCall:
		if in.Sym != "" {
			rel(RelocCall)
		}
		put32(uint32(in.Target))
	case MCallInd:
		putReg(in.Rs1)
	case MCallExt:
		put8(in.NArgs)
		if in.Sym != "" {
			rel(RelocExt)
		}
		put32(uint32(in.Target))
	case MPush:
		putReg(in.Rs1)
	case MPop:
		putReg(in.Rd)
	case MCvt:
		put8(byte(in.Cvt))
		put8(in.Size)
		putReg(in.Rd)
		putReg(in.Rs1)
	case MInvokePush:
		put32(uint32(in.Target))
	case MTrap, MAdjSP:
		put32(uint32(int32(in.Imm)))
	default:
		panic(fmt.Sprintf("target: encode of unknown op %d", in.Op))
	}
	if len(code)-start > 16 {
		panic(fmt.Sprintf("target: %s encodes to %d bytes (> 16-byte fetch window)",
			in.Op, len(code)-start))
	}
	return code, relocs
}

var errTruncated = errors.New("truncated instruction")

type decoder struct {
	b   []byte
	pos int
	err error
}

func (r *decoder) u8() byte {
	if r.err != nil || r.pos >= len(r.b) {
		r.err = errTruncated
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *decoder) reg() Reg { return decReg(r.u8()) }

func (r *decoder) u16() uint16 {
	if r.err != nil || r.pos+2 > len(r.b) {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.pos:])
	r.pos += 2
	return v
}

func (r *decoder) u32() uint32 {
	if r.err != nil || r.pos+4 > len(r.b) {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v
}

// imm reads an ALU, compare or setcc immediate field of d's width.
func (r *decoder) imm(d *Desc) int64 {
	switch d.immBytes() {
	case 2:
		return int64(int16(r.u16()))
	case 4:
		return int64(int32(r.u32()))
	}
	return int64(r.u64())
}

func (r *decoder) u64() uint64 {
	if r.err != nil || r.pos+8 > len(r.b) {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v
}

// Decode reads one instruction from the front of b, returning it and
// its encoded length. Decoding works on unpatched code (relocation
// slots read as zero), which the translator relies on when inspecting
// raw native objects.
func (d *Desc) Decode(b []byte) (MInstr, int, error) {
	return d.DecodeFrom(b, 0)
}

// DecodeFrom reads one instruction at offset pos of b, returning it and
// its encoded length. It is the processor's predecode entry point: the
// machine holds a single view of its whole code segment and decodes in
// place, instead of cutting a fresh fetch window per instruction.
func (d *Desc) DecodeFrom(b []byte, pos int) (MInstr, int, error) {
	if pos < 0 || pos > len(b) {
		return MInstr{}, 0, errTruncated
	}
	r := &decoder{b: b, pos: pos}
	var in MInstr
	op := MOp(r.u8())
	if op >= mOpCount {
		return in, 0, fmt.Errorf("target: bad opcode byte 0x%02x", byte(op))
	}
	in.Op = op
	flags := r.u8()
	in.HasImm = flags&fHasImm != 0
	in.HasMem = flags&fHasMem != 0
	in.Signed = flags&fSigned != 0
	in.FP = flags&fFP != 0
	in.NoTrap = flags&fNoTrap != 0
	// Absent operands default to NoReg so decoded instructions mirror
	// what the selector built.
	in.Rd, in.Rs1, in.Rs2, in.Base, in.Index = NoReg, NoReg, NoReg, NoReg, NoReg

	switch op {
	case MNop, MRet, MInvokePop, MUnwind:
	case MMovRR:
		in.Rd = r.reg()
		in.Rs1 = r.reg()
	case MMovRI:
		in.Rd = r.reg()
		if d.WordSize == 4 {
			in.Scale = r.u8()
			in.Imm = int64(r.u16())
		} else {
			in.Imm = int64(r.u64())
		}
	case MLoad:
		in.Rd = r.reg()
		in.Base = r.reg()
		in.Index = r.reg()
		in.Scale = r.u8()
		in.Size = r.u8()
		in.Disp = int32(r.u32())
	case MStore:
		in.Rs1 = r.reg()
		in.Base = r.reg()
		in.Index = r.reg()
		in.Scale = r.u8()
		in.Size = r.u8()
		in.Disp = int32(r.u32())
	case MLea:
		in.Rd = r.reg()
		in.Base = r.reg()
		in.Index = r.reg()
		in.Scale = r.u8()
		in.Disp = int32(r.u32())
	case MALU:
		alu := ALUOp(r.u8())
		if alu >= aluOpCount {
			return in, 0, fmt.Errorf("target: bad ALU op byte 0x%02x", byte(alu))
		}
		in.Alu = alu
		in.Size = r.u8()
		in.Rd = r.reg()
		in.Rs1 = r.reg()
		switch {
		case in.HasImm:
			in.Imm = r.imm(d)
		case in.HasMem:
			in.Base = r.reg()
			in.Index = r.reg()
			in.Scale = r.u8()
			in.Disp = int32(r.u32())
		default:
			in.Rs2 = r.reg()
		}
	case MCmp:
		in.Rs1 = r.reg()
		if in.HasImm {
			in.Imm = r.imm(d)
		} else {
			in.Rs2 = r.reg()
		}
	case MSetCC:
		in.Cnd = Cond(r.u8())
		in.Rd = r.reg()
		in.Rs1 = r.reg()
		if in.HasImm {
			in.Imm = r.imm(d)
		} else {
			in.Rs2 = r.reg()
		}
	case MJmp:
		in.Target = int32(r.u32())
	case MJcc:
		in.Cnd = Cond(r.u8())
		in.Rs1 = r.reg()
		in.Target = int32(r.u32())
	case MCall:
		in.Target = int32(r.u32())
	case MCallInd:
		in.Rs1 = r.reg()
	case MCallExt:
		in.NArgs = r.u8()
		in.Target = int32(r.u32())
	case MPush:
		in.Rs1 = r.reg()
	case MPop:
		in.Rd = r.reg()
	case MCvt:
		cvt := CvtOp(r.u8())
		if cvt >= cvtOpCount {
			return in, 0, fmt.Errorf("target: bad cvt op byte 0x%02x", byte(cvt))
		}
		in.Cvt = cvt
		in.Size = r.u8()
		in.Rd = r.reg()
		in.Rs1 = r.reg()
	case MInvokePush:
		in.Target = int32(r.u32())
	case MTrap, MAdjSP:
		in.Imm = int64(int32(r.u32()))
	}
	if in.Cnd >= condCount {
		return in, 0, fmt.Errorf("target: bad condition byte 0x%02x", byte(in.Cnd))
	}
	if r.err != nil {
		return in, 0, r.err
	}
	return in, r.pos - pos, nil
}

// Patch applies one relocation value to encoded code at offset. It
// returns a *RelocRangeError, and leaves the code as it was, when the
// value does not fit the slot.
func (d *Desc) Patch(code []byte, offset uint32, kind RelocKind, val uint64) error {
	switch kind {
	case RelocAbs:
		binary.LittleEndian.PutUint64(code[offset:], val)
	case RelocCall:
		binary.LittleEndian.PutUint32(code[offset:], uint32(val/uint64(d.CallTargetScale)))
	case RelocExt:
		binary.LittleEndian.PutUint32(code[offset:], uint32(val))
	case RelocHi16:
		binary.LittleEndian.PutUint16(code[offset:], uint16(val>>16))
	case RelocLo16:
		binary.LittleEndian.PutUint16(code[offset:], uint16(val))
	case RelocDisp32:
		sum := int64(int32(binary.LittleEndian.Uint32(code[offset:]))) + int64(val)
		if val >= 1<<63 || sum != int64(int32(sum)) {
			return &RelocRangeError{Kind: kind, Value: sum}
		}
		binary.LittleEndian.PutUint32(code[offset:], uint32(sum))
	default:
		panic(fmt.Sprintf("target: unknown reloc kind %d", kind))
	}
	return nil
}
