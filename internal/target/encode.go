package target

import (
	"encoding/binary"
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
	fSetsFlags

	fAll = 1<<iota - 1
)

// encReg packs a register operand into one byte: 0xFF is NoReg, bit 6
// marks the FP file.
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

// decReg unpacks a register byte; a byte encReg never writes (bit 7 set,
// other than 0xFF) is refused.
func decReg(b byte) (Reg, bool) {
	switch {
	case b == 0xFF:
		return NoReg, true
	case b&0x80 != 0:
		return 0, false
	case b&0x40 != 0:
		return FPBase + Reg(b&0x3F), true
	default:
		return Reg(b), true
	}
}

// encFlags is in's flags byte but for fSetsFlags, which the encoder
// sets with the field that names it.
func encFlags(in *MInstr) byte {
	return bit(in.HasImm)*fHasImm | bit(in.HasMem)*fHasMem | bit(in.Signed)*fSigned |
		bit(in.FP)*fFP | bit(in.NoTrap)*fNoTrap
}

// bit is 1 for true and 0 for false.
func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Encode appends the byte encoding of one instruction to code and
// returns the extended slice plus any relocations (offsets relative to
// the appended instruction's first byte). The encoding is the op byte,
// the flags byte and the fields of in's form in order, so its length is
// EncodedLen's: the translator's measure and emit passes always agree,
// and every encoding fits the processor's 16-byte fetch window.
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
	if in.Op >= mOpCount {
		panic(fmt.Sprintf("target: encode of unknown op %d", in.Op))
	}
	le := binary.LittleEndian
	flags := len(code) + 1
	code = append(code, byte(in.Op), encFlags(in))
	for _, f := range in.Fields() {
		if kind, off, ok := d.reloc(in, f); ok {
			relocs = append(relocs, Reloc{Offset: uint32(len(code) + off), Kind: kind, Sym: in.Sym})
		}
		switch f {
		case FRd, FRs1, FRs2:
			code = append(code, encReg(*in.reg(f)))
		case FImm:
			// An immediate outside the target's range is the
			// translator's bug: refuse it rather than truncate it.
			if !d.ImmFits(in.Imm) {
				panic(fmt.Sprintf("target: %s: immediate %d outside %s's range [%d, %d]",
					in.String(), in.Imm, d.Name, -d.MaxImm-1, d.MaxImm))
			}
			switch d.fieldLen(f) {
			case 2:
				code = le.AppendUint16(code, uint16(in.Imm))
			case 4:
				code = le.AppendUint32(code, uint32(in.Imm))
			default:
				code = le.AppendUint64(code, uint64(in.Imm))
			}
		case FMem:
			code = append(code, encReg(in.Base), encReg(in.Index), in.Scale)
		case FDisp:
			code = le.AppendUint32(code, uint32(in.Disp))
		case FSize, FCond, FALU, FCvt, FNArgs:
			code = append(code, *in.small(f))
		case FTarget, FCallee, FExtern:
			code = le.AppendUint32(code, uint32(in.Target))
		case FConst:
			if d.WordSize == 4 {
				code = le.AppendUint16(append(code, in.Scale), uint16(in.Imm))
			} else {
				code = le.AppendUint64(code, uint64(in.Imm))
			}
		case FImm32:
			code = le.AppendUint32(code, uint32(in.Imm))
		case FSetsFlags:
			// A bit the decoder refuses is the translator's bug.
			if in.SetsFlags && !d.SetsFlagsFits(in) {
				panic(fmt.Sprintf("target: %s: %s sets no flags", in.String(), d.Name))
			}
			code[flags] |= bit(in.SetsFlags) * fSetsFlags
		}
	}
	return code, relocs
}

// DecodeError is bytes DecodeFrom refused: the field of an op's
// encoding, starting at Off, that runs past the end of the bytes or
// holds a value the encoder never writes.
type DecodeError struct {
	Off   int
	Op    MOp
	Field Field
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("target: %s: %s field at offset %d truncated or invalid", e.Op, e.Field, e.Off)
}

// DecodeFrom reads one instruction at offset pos of b into *in,
// returning its encoded length. Decoding works on unpatched code
// (relocation slots read as zero), which the translator relies on when
// inspecting raw native objects. It is the processor's predecode entry
// point: the machine holds a single view of its whole code segment and
// decodes in place, into the caller's instruction, instead of cutting a
// fresh fetch window per instruction or copying one out. Bytes the
// encoder never writes are a *DecodeError, and leave *in undefined, so
// an instruction DecodeFrom accepts encodes back to exactly the bytes it
// came from.
func (d *Desc) DecodeFrom(b []byte, pos int, in *MInstr) (int, error) {
	if pos < 0 || pos >= len(b) {
		return 0, &DecodeError{Off: pos, Field: FOp}
	}
	op := MOp(b[pos])
	if op >= mOpCount {
		return 0, &DecodeError{Off: pos, Op: op, Field: FOp}
	}
	if pos+1 >= len(b) || b[pos+1]&^fAll != 0 {
		return 0, &DecodeError{Off: pos + 1, Op: op, Field: FFlags}
	}
	flags := b[pos+1]
	// Field by field: a composite literal would be built aside and
	// copied in whole, behind a write barrier for Sym.
	in.Op, in.Alu, in.Cnd, in.Cvt = op, 0, 0, 0
	in.Rd, in.Rs1, in.Rs2, in.Base, in.Index = NoReg, NoReg, NoReg, NoReg, NoReg
	in.Scale, in.Size, in.Disp, in.Imm, in.Target, in.NArgs = 0, 0, 0, 0, 0, 0
	in.HasImm, in.HasMem, in.Signed = flags&fHasImm != 0, flags&fHasMem != 0, flags&fSigned != 0
	in.FP, in.NoTrap, in.SetsFlags = flags&fFP != 0, flags&fNoTrap != 0, flags&fSetsFlags != 0
	in.Sym = ""
	sh := in.shape()
	if in.SetsFlags && sh.named&(1<<FSetsFlags) == 0 {
		return 0, &DecodeError{Off: pos + 1, Op: op, Field: FFlags}
	}
	p := pos + 2
	le := binary.LittleEndian
	for _, f := range sh.fields {
		w := d.fieldLen(f)
		if p+w > len(b) {
			return 0, &DecodeError{Off: p, Op: op, Field: f}
		}
		ok := true
		switch f {
		case FRd, FRs1, FRs2:
			*in.reg(f), ok = decReg(b[p])
		case FImm:
			switch w {
			case 2:
				in.Imm = int64(int16(le.Uint16(b[p:])))
			case 4:
				in.Imm = int64(int32(le.Uint32(b[p:])))
			default:
				in.Imm = int64(le.Uint64(b[p:]))
			}
			ok = d.ImmFits(in.Imm)
		case FMem:
			var okIndex bool
			in.Base, ok = decReg(b[p])
			in.Index, okIndex = decReg(b[p+1])
			in.Scale, ok = b[p+2], ok && okIndex
		case FDisp:
			in.Disp = int32(le.Uint32(b[p:]))
		case FSize, FCond, FALU, FCvt, FNArgs:
			*in.small(f) = b[p]
			ok = int(b[p]) < fieldLimit[f]
		case FTarget, FCallee, FExtern:
			in.Target = int32(le.Uint32(b[p:]))
		case FConst:
			if d.WordSize == 4 {
				in.Scale, in.Imm = b[p], int64(le.Uint16(b[p+1:]))
			} else {
				in.Imm = int64(le.Uint64(b[p:]))
			}
		case FImm32:
			in.Imm = int64(int32(le.Uint32(b[p:])))
		}
		if !ok {
			return 0, &DecodeError{Off: p, Op: op, Field: f}
		}
		p += w
	}
	// Whether the bit is legal depends on the op, size and immediate.
	if in.SetsFlags && !d.SetsFlagsFits(in) {
		return 0, &DecodeError{Off: pos + 1, Op: op, Field: FFlags}
	}
	return p - pos, nil
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
