package machine

import (
	"llva/internal/target"
)

// A uop is one predecoded instruction as the block engine executes it:
// buildBlock lowers each decoded target.MInstr to exactly one, once, and
// the MInstr is dropped. Whatever is constant for the instruction is
// resolved here and not looked at again: which of the machine's forms it
// is (the opcode), its register operands as slots of the register file,
// its branch, call and return addresses as absolute PCs, and its place
// in the block (off, n, cum), from which a trap, an extern call or the
// block's exit reconstruct the PC and the counters.
//
// The one op that stands for two instructions is a compare fused with
// the conditional branch that follows it (uCmpJcc*): see fuse.
type uop struct {
	op uopCode
	rd uint8 // destination slot
	ra uint8 // first source slot
	rb uint8 // second source slot, or the memory operand's base
	rx uint8 // the memory operand's index slot
	sc uint8 // index scale; for setcc/jcc forms, the condition's truth table
	n  uint8 // instructions of the block retired through this op, inclusive
	k  uint8 // uALU/uALUM: target.ALUOp; uCvt: target.CvtOp; uCallExt: NArgs

	off  uint16 // PC of the instruction, relative to the block's entry
	cum  uint16 // block cycles through this op, inclusive
	disp int32  // memory displacement

	// imm is the immediate of an ALU or compare op (added to the rb slot's
	// value: an immediate form names the zero slot there, a register form
	// has imm 0, so one op serves both), the value of uMovI, the absolute
	// target of a jump, call or invoke handler, the extern index of
	// uCallExt, the trap number of uTrap.
	imm uint64
	// aux is the absolute branch target of a fused compare-and-branch and
	// the return address of a call; for memory, ALU and conversion ops, the
	// operation size in its low byte and the aux* bits above it.
	aux uint64
}

const (
	auxSigned = 1 << (8 + iota)
	auxFP
	auxNoTrap
	auxSetsFlags
)

func (u *uop) size() uint8     { return uint8(u.aux) }
func (u *uop) signed() bool    { return u.aux&auxSigned != 0 }
func (u *uop) fp() bool        { return u.aux&auxFP != 0 }
func (u *uop) noTrap() bool    { return u.aux&auxNoTrap != 0 }
func (u *uop) setsFlags() bool { return u.aux&auxSetsFlags != 0 }

// Register slots. A uop names its operands by index into Machine.regs,
// which has a slot for every uint8, so an access is never range-checked.
// The first unifiedRegs slots are the architectural file. An absent or
// out-of-file source operand reads zeroSlot, which nothing writes; an
// absent destination, and r0 on the target that hardwires it to zero,
// writes sinkSlot, which nothing reads.
const (
	zeroSlot = unifiedRegs
	sinkSlot = unifiedRegs + 1
	regSlots = 256
)

func srcSlot(r target.Reg) uint8 {
	if r < unifiedRegs {
		return uint8(r)
	}
	return zeroSlot
}

func (mc *Machine) dstSlot(r target.Reg) uint8 {
	// WordSize 4 is vsparc, whose r0 reads as zero: writes to it are
	// discarded.
	if r < unifiedRegs && (r != 0 || mc.desc.WordSize != 4) {
		return uint8(r)
	}
	return sinkSlot
}

// uopCode selects a uop's handler in runBlock. Ops up to uLea are the
// memory forms and share one operand layout (effective address
// r[rb] + r[rx]*sc + disp); the fast loads and stores exist for
// little-endian memory and the sizes 1, 2, 4 and 8, everything else is
// uLdG/uStG.
type uopCode uint8

const (
	uNop  uopCode = iota
	uMov          // r[rd] = r[ra]
	uMovI         // r[rd] = imm

	uLd8U
	uLd8S
	uLd16U
	uLd16S
	uLd32U
	uLd32S
	uLd64
	uLdG // any load: byte order, size and FP-ness read at run time
	uSt8
	uSt16
	uSt32
	uSt64
	uStG
	uLea

	// Integer ALU forms whose result needs no re-canonicalisation (64) or
	// a sign extension from 32 bits (S32); the second operand is
	// r[rb] + imm. uALU is every other register/immediate ALU form and
	// uALUM the forms with a memory operand.
	uAdd64
	uAddS32
	uSub64
	uSubS32
	uAnd64
	uOr64
	uXor64
	// The 64-bit and that also sets the flags from its result (a vx86
	// ALU op with SetsFlags): crafty's popcount loops run it, and took
	// half as long again on uALU. Every other such op is uALU or uALUM
	// with auxSetsFlags.
	uAnd64F
	uFAdd // double precision
	uFSub
	uFMul
	uSext32
	uALU
	uALUM
	uCvt

	// Compares set the flags from r[ra] and r[rb] + imm: signed, unsigned,
	// floating point.
	uCmpS
	uCmpU
	uCmpF
	// uSetCC reads the flags (flags targets); uSetCmp* compare first, r[ra]
	// with r[rb] + imm as the compares do.
	uSetCC
	uSetCmpS
	uSetCmpU
	uSetCmpF

	uPush
	uPop
	uInvokePush
	uInvokePop
	uTrap

	// Terminators: each ends its block.
	uJmp
	uJcc  // on the flags
	uJccZ // on a signed compare of r[ra] with zero (targets without flags)
	uCmpJccS
	uCmpJccU
	uCmpJccF
	uCall
	uCallInd
	uCallExt
	uRet
	uUnwind
)

// Flags. The processor's condition state is two bits, less-than and equal,
// as the last compare left them. A condition is a 4-bit truth table
// indexed by that state, so testing one is a shift and a mask.
const (
	flagLT = 1 << iota
	flagEQ
)

var condTable = [...]uint8{
	target.CondEQ: 0b1100,
	target.CondNE: 0b0011,
	target.CondLT: 0b1010,
	target.CondGE: 0b0101,
	target.CondGT: 0b0001,
	target.CondLE: 0b1110,
}

// truth is 1 if the op's condition holds in the given flags state, else 0.
func (u *uop) truth(flags uint8) uint64 { return uint64(u.sc >> flags & 1) }
func (u *uop) holds(flags uint8) bool   { return u.truth(flags) != 0 }

// identityCanon reports whether core.Scalar.Canon leaves an integer of
// this size as it is.
func identityCanon(size uint8) bool { return size != 1 && size != 2 && size != 4 }

// lower translates the instruction decoded at pc, n bytes long, to its
// uop. The block-position fields (off, n, cum) are the caller's. The
// operand slots come from the fields of the instruction's form; the
// switch on the op only picks the uop code.
func (mc *Machine) lower(in *target.MInstr, pc uint64, n int) uop {
	d := mc.desc
	u := uop{rd: sinkSlot, ra: zeroSlot, rb: zeroSlot, rx: zeroSlot}
	if in.Op.Is(target.Calls) {
		u.aux = pc + uint64(n) // the return address
	}
	for _, f := range in.Fields() {
		switch f {
		case target.FRd:
			u.rd = mc.dstSlot(in.Rd)
		case target.FRs1:
			u.ra = srcSlot(in.Rs1)
		case target.FRs2:
			u.rb = srcSlot(in.Rs2)
		case target.FImm, target.FImm32:
			u.imm = uint64(in.Imm)
		case target.FMem:
			u.rb, u.rx, u.sc = srcSlot(in.Base), srcSlot(in.Index), in.Scale
		case target.FDisp:
			u.disp = in.Disp
		case target.FSize:
			u.aux = uint64(in.Size)
			for i, set := range [...]bool{in.Signed, in.FP, in.NoTrap} {
				if set {
					u.aux |= auxSigned << i
				}
			}
		case target.FCond:
			u.sc = condTable[in.Cnd]
		case target.FALU:
			u.k = uint8(in.Alu)
		case target.FCvt:
			u.k = uint8(in.Cvt)
		case target.FSetsFlags:
			if in.SetsFlags {
				u.aux |= auxSetsFlags
			}
		case target.FNArgs:
			u.k = in.NArgs
		case target.FTarget:
			u.imm = uint64(int64(pc) + int64(in.Target)*int64(d.RelBranchScale))
		case target.FCallee:
			u.imm = uint64(in.Target) * uint64(d.CallTargetScale)
		case target.FExtern:
			u.imm = uint64(int64(in.Target))
		case target.FConst:
			u.imm = uint64(in.Imm)
			if d.WordSize == 4 {
				// vsparc builds constants from 16-bit chunks: set writes
				// a sign-extended chunk shifted into place, or (HasImm)
				// merges one into the register.
				chunk := uint64(in.Imm) & 0xffff
				sh := uint(in.Scale) * 16
				u.imm = uint64(int64(int16(chunk))) << sh
				if in.HasImm {
					u.ra, u.imm = srcSlot(in.Rd), chunk<<sh
				}
			}
		}
	}
	little := mc.mem.LittleEndian()

	u.op = uopOf[in.Op]
	switch in.Op {
	case target.MMovRI:
		if d.WordSize == 4 && in.HasImm {
			u.op = uOr64
		}
	case target.MLoad:
		// A float wider or narrower than 4 bytes is loaded as its raw,
		// zero-extended bits.
		if signed := in.Signed && !in.FP; little && !(in.FP && in.Size == 4) {
			switch {
			case in.Size == 1 && signed:
				u.op = uLd8S
			case in.Size == 1:
				u.op = uLd8U
			case in.Size == 2 && signed:
				u.op = uLd16S
			case in.Size == 2:
				u.op = uLd16U
			case in.Size == 4 && signed:
				u.op = uLd32S
			case in.Size == 4:
				u.op = uLd32U
			case in.Size == 8:
				u.op = uLd64
			}
		}
	case target.MStore:
		if little && !(in.FP && in.Size == 4) {
			switch in.Size {
			case 1:
				u.op = uSt8
			case 2:
				u.op = uSt16
			case 4:
				u.op = uSt32
			case 8:
				u.op = uSt64
			}
		}
	case target.MALU:
		if !in.HasMem || in.HasImm {
			u.op = fastALU(in)
		}
		if in.SetsFlags {
			u.op = flagForm[u.op]
		}
	case target.MCmp:
		u.op = cmpOp(in, uCmpS, uCmpU, uCmpF)
	case target.MSetCC:
		if !d.HasFlags {
			u.op = cmpOp(in, uSetCmpS, uSetCmpU, uSetCmpF)
		}
	case target.MJcc:
		if !d.HasFlags {
			u.op = uJccZ
		}
	case target.MCvt:
		switch {
		case in.Cvt == target.CvtBits,
			in.Cvt == target.CvtIntExt && identityCanon(in.Size),
			in.Cvt == target.CvtFToF && in.Size != 4:
			u.op = uMov
		case in.Cvt == target.CvtIntExt && in.Size == 4 && in.Signed:
			u.op = uSext32
		}
	case target.MAdjSP:
		u.rd, u.ra = uint8(d.SP), uint8(d.SP)
	}
	return u
}

// uopOf is each op's uop before lower specialises it: the general forms
// of loads, stores, ALU ops and conversions, a setcc or jcc that reads
// the flags, and the one form of everything else.
var uopOf = [...]uopCode{
	target.MNop: uNop, target.MMovRR: uMov, target.MMovRI: uMovI,
	target.MLoad: uLdG, target.MStore: uStG, target.MLea: uLea,
	target.MALU: uALUM, target.MSetCC: uSetCC, target.MJmp: uJmp, target.MJcc: uJcc,
	target.MCall: uCall, target.MCallInd: uCallInd, target.MCallExt: uCallExt,
	target.MRet: uRet, target.MPush: uPush, target.MPop: uPop, target.MCvt: uCvt,
	target.MInvokePush: uInvokePush, target.MInvokePop: uInvokePop,
	target.MUnwind: uUnwind, target.MTrap: uTrap, target.MAdjSP: uAdd64,
}

// flagForm is the form of each ALU uop that also sets the flags: uAnd64F
// for the 64-bit and, else uALU or uALUM, which read auxSetsFlags. Only
// integer forms can set them (target.Desc.SetsFlagsFits).
var flagForm = [...]uopCode{uAdd64: uALU, uSub64: uALU, uAnd64: uAnd64F,
	uOr64: uALU, uXor64: uALU, uAddS32: uALU, uSubS32: uALU, uALU: uALU, uALUM: uALUM}

// fastALU picks the specialised form of a register/immediate ALU
// instruction, if it has one.
func fastALU(in *target.MInstr) uopCode {
	if in.FP {
		if in.Size != 4 && !in.HasImm { // only a 4-byte float result rounds
			switch in.Alu {
			case target.AAdd:
				return uFAdd
			case target.ASub:
				return uFSub
			case target.AMul:
				return uFMul
			}
		}
		return uALU
	}
	if identityCanon(in.Size) {
		switch in.Alu {
		case target.AAdd:
			return uAdd64
		case target.ASub:
			return uSub64
		case target.AAnd:
			return uAnd64
		case target.AOr:
			return uOr64
		case target.AXor:
			return uXor64
		}
	} else if in.Size == 4 && in.Signed {
		switch in.Alu {
		case target.AAdd:
			return uAddS32
		case target.ASub:
			return uSubS32
		}
	}
	return uALU
}

// cmpOp picks the signed, unsigned or floating-point variant of a
// comparing op the way compare always has: FP wins over Signed.
func cmpOp(in *target.MInstr, s, u, f uopCode) uopCode {
	switch {
	case in.FP:
		return f
	case in.Signed:
		return s
	}
	return u
}

// fuse folds a compare and the conditional branch that follows it in the
// same block into one op. Only a target with flags has the pair. The
// fused op still writes the flags: a later setcc, or a branch reached by
// a jump to the jcc's own address (which starts a block of its own, so it
// is never fused away), reads what the compare left. It retires as the
// two instructions it is: n and cum are the branch's, and neither half
// can trap, so no PC between the two is ever reported.
func fuse(cmp, jcc *uop) bool {
	if jcc.op != uJcc {
		return false
	}
	switch cmp.op {
	case uCmpS:
		cmp.op = uCmpJccS
	case uCmpU:
		cmp.op = uCmpJccU
	case uCmpF:
		cmp.op = uCmpJccF
	default:
		return false
	}
	cmp.sc, cmp.aux = jcc.sc, jcc.imm
	cmp.n, cmp.cum = jcc.n, jcc.cum
	return true
}
