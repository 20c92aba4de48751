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
)

func (u *uop) size() uint8  { return uint8(u.aux) }
func (u *uop) signed() bool { return u.aux&auxSigned != 0 }
func (u *uop) fp() bool     { return u.aux&auxFP != 0 }
func (u *uop) noTrap() bool { return u.aux&auxNoTrap != 0 }

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
// uop. The block-position fields (off, n, cum) are the caller's.
func (mc *Machine) lower(in *target.MInstr, pc uint64, n int) uop {
	d := mc.desc
	u := uop{rd: sinkSlot, ra: zeroSlot, rb: zeroSlot, rx: zeroSlot}
	sized := func() {
		u.aux = uint64(in.Size)
		if in.Signed {
			u.aux |= auxSigned
		}
		if in.FP {
			u.aux |= auxFP
		}
		if in.NoTrap {
			u.aux |= auxNoTrap
		}
	}
	memOperand := func() {
		u.rb, u.rx, u.sc, u.disp = srcSlot(in.Base), srcSlot(in.Index), in.Scale, in.Disp
	}
	relTarget := uint64(int64(pc) + int64(in.Target)*int64(d.RelBranchScale))
	little := mc.mem.LittleEndian()

	switch in.Op {
	case target.MNop:
		u.op = uNop
	case target.MMovRR:
		u.op, u.rd, u.ra = uMov, mc.dstSlot(in.Rd), srcSlot(in.Rs1)
	case target.MMovRI:
		u.op, u.rd, u.imm = uMovI, mc.dstSlot(in.Rd), uint64(in.Imm)
		if d.WordSize == 4 {
			// vsparc builds constants from 16-bit chunks: set writes a
			// sign-extended chunk shifted into place, or (HasImm) merges
			// one into the register.
			chunk := uint64(in.Imm) & 0xffff
			sh := uint(in.Scale) * 16
			if in.HasImm {
				u.op, u.ra, u.imm = uOr64, srcSlot(in.Rd), chunk<<sh
			} else {
				u.imm = uint64(int64(int16(chunk))) << sh
			}
		}
	case target.MLoad:
		u.rd = mc.dstSlot(in.Rd)
		memOperand()
		sized()
		u.op = uLdG
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
		u.ra = srcSlot(in.Rs1)
		memOperand()
		sized()
		u.op = uStG
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
	case target.MLea:
		u.op, u.rd = uLea, mc.dstSlot(in.Rd)
		memOperand()
	case target.MALU:
		u.rd, u.ra, u.k = mc.dstSlot(in.Rd), srcSlot(in.Rs1), uint8(in.Alu)
		sized()
		switch {
		case in.HasImm:
			u.op, u.imm = uALU, uint64(in.Imm)
		case in.HasMem:
			u.op = uALUM
			memOperand()
		default:
			u.op, u.rb = uALU, srcSlot(in.Rs2)
		}
		if u.op == uALU {
			u.op = fastALU(in)
		}
	case target.MCmp:
		u.op, u.ra = cmpOp(in, uCmpS, uCmpU, uCmpF), srcSlot(in.Rs1)
		if in.HasImm {
			u.imm = uint64(in.Imm)
		} else {
			u.rb = srcSlot(in.Rs2)
		}
	case target.MSetCC:
		u.op, u.rd, u.sc = uSetCC, mc.dstSlot(in.Rd), condTable[in.Cnd]
		if !d.HasFlags {
			u.op, u.ra = cmpOp(in, uSetCmpS, uSetCmpU, uSetCmpF), srcSlot(in.Rs1)
			if in.HasImm {
				u.imm = uint64(in.Imm)
			} else {
				u.rb = srcSlot(in.Rs2)
			}
		}
	case target.MJmp:
		u.op, u.imm = uJmp, relTarget
	case target.MJcc:
		u.op, u.sc, u.imm = uJcc, condTable[in.Cnd], relTarget
		if !d.HasFlags {
			u.op, u.ra = uJccZ, srcSlot(in.Rs1)
		}
	case target.MCall:
		u.op, u.imm, u.aux = uCall, uint64(in.Target)*uint64(d.CallTargetScale), pc+uint64(n)
	case target.MCallInd:
		u.op, u.ra, u.aux = uCallInd, srcSlot(in.Rs1), pc+uint64(n)
	case target.MCallExt:
		u.op, u.imm, u.k = uCallExt, uint64(int64(in.Target)), in.NArgs
	case target.MRet:
		u.op = uRet
	case target.MPush:
		u.op, u.ra = uPush, srcSlot(in.Rs1)
	case target.MPop:
		u.op, u.rd = uPop, mc.dstSlot(in.Rd)
	case target.MCvt:
		u.op, u.rd, u.ra, u.k = uCvt, mc.dstSlot(in.Rd), srcSlot(in.Rs1), uint8(in.Cvt)
		sized()
		switch {
		case in.Cvt == target.CvtBits,
			in.Cvt == target.CvtIntExt && identityCanon(in.Size),
			in.Cvt == target.CvtFToF && in.Size != 4:
			u.op = uMov
		case in.Cvt == target.CvtIntExt && in.Size == 4 && in.Signed:
			u.op = uSext32
		}
	case target.MInvokePush:
		u.op, u.imm = uInvokePush, relTarget
	case target.MInvokePop:
		u.op = uInvokePop
	case target.MUnwind:
		u.op = uUnwind
	case target.MTrap:
		u.op, u.imm = uTrap, uint64(in.Imm)
	case target.MAdjSP:
		u.op, u.rd, u.ra, u.imm = uAdd64, uint8(d.SP), uint8(d.SP), uint64(in.Imm)
	default:
		// The decoder admits no other opcode.
		panic("machine: lower: unknown op " + in.Op.String())
	}
	return u
}

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
