package codegen

import (
	"llva/internal/core"
	"llva/internal/target"
)

// memOperand is a target addressing-mode expression.
type memOperand struct {
	base  target.Reg
	index target.Reg
	scale uint8
	disp  int32
}

// gepFoldable reports whether a GEP can fold entirely into the addressing
// modes of its (memory-instruction) users instead of computing an address
// value — the translator's pattern fusion (paper, Section 3.1).
func (s *selector) gepFoldable(in *core.Instruction) bool {
	if in.NumUses() != 1 {
		return false
	}
	u := in.Uses()[0]
	switch u.User.Op() {
	case core.OpLoad:
		return true
	case core.OpStore:
		return u.Index == 1 // only as the address operand
	}
	return false
}

// constGEPOffset computes the byte offset of a GEP whose indices are all
// constants, or ok=false.
func (s *selector) constGEPOffset(in *core.Instruction) (int64, bool) {
	var consts []*core.Constant
	for _, idx := range in.Operands()[1:] {
		c, ok := idx.(*core.Constant)
		if !ok || c.CK != core.ConstInt {
			return 0, false
		}
		consts = append(consts, c)
	}
	off, _ := s.lay.GEPOffset(in.Operand(0).Type().Elem(), consts)
	return off, true
}

// addr lowers a pointer operand into a memory operand, folding a
// single-use GEP into base+index*scale+disp where the target allows.
func (s *selector) addr(ptr core.Value) memOperand {
	in, ok := ptr.(*core.Instruction)
	if ok && in.Op() == core.OpGetElementPtr && s.gepFoldable(in) {
		// All-constant indices: base + disp.
		if off, isConst := s.constGEPOffset(in); isConst {
			base := s.val(in.Operand(0))
			if s.fitsDisp(off) {
				return memOperand{base: base, index: target.NoReg, disp: int32(off)}
			}
			return memOperand{base: s.addImm(base, off), index: target.NoReg}
		}
		// Single dynamic index over the pointee: base + idx*scale (vx86).
		if in.NumOperands() == 2 && s.desc.MemOperands {
			elem := in.Type().Elem()
			size := s.lay.Size(elem)
			if size == 1 || size == 2 || size == 4 || size == 8 {
				base := s.val(in.Operand(0))
				idx := s.val(in.Operand(1))
				return memOperand{base: base, index: idx, scale: uint8(size)}
			}
		}
		// General: compute the address, use it directly.
		s.computeGEP(in)
		return memOperand{base: s.vreg[in], index: target.NoReg}
	}
	return memOperand{base: s.val(ptr), index: target.NoReg}
}

func (s *selector) fitsDisp(off int64) bool {
	if s.desc.WordSize == 4 {
		return off >= -256 && off <= 255
	}
	return off >= -(1<<31) && off < 1<<31
}

// addImm returns a register holding base+off.
func (s *selector) addImm(base target.Reg, off int64) target.Reg {
	if off == 0 {
		return base
	}
	rd := s.newVReg(false)
	if s.desc.MemOperands {
		// vx86: lea rd, [base + off]
		s.emit(target.MInstr{Op: target.MLea, Rd: rd, Base: base,
			Index: target.NoReg, Disp: int32(off), HasMem: true})
		return rd
	}
	t := s.newVReg(false)
	s.synthImm(t, off)
	s.emitALU(target.AAdd, rd, base, t, 8, false, false)
	return rd
}

// computeGEP materializes a GEP's address into its virtual register.
func (s *selector) computeGEP(in *core.Instruction) {
	cur := s.val(in.Operand(0))
	curType := in.Operand(0).Type().Elem()
	rd := s.vreg[in]

	for i, idxOp := range in.Operands()[1:] {
		var elem *core.Type
		if i == 0 {
			elem = curType
		} else {
			switch curType.Kind() {
			case core.StructKind:
				fi := int(idxOp.(*core.Constant).Int64())
				off := s.lay.FieldOffset(curType, fi)
				cur = s.addImm(cur, off)
				curType = curType.Fields()[fi]
				continue
			case core.ArrayKind:
				curType = curType.Elem()
				elem = curType
			}
		}
		size := s.lay.Size(elem)
		if c, ok := idxOp.(*core.Constant); ok && c.CK == core.ConstInt {
			cur = s.addImm(cur, c.Int64()*size)
			continue
		}
		idx := s.val(idxOp)
		if s.desc.MemOperands && (size == 1 || size == 2 || size == 4 || size == 8) {
			// lea cur', [cur + idx*size]
			nr := s.newVReg(false)
			s.emit(target.MInstr{Op: target.MLea, Rd: nr, Base: cur,
				Index: idx, Scale: uint8(size), HasMem: true})
			cur = nr
			continue
		}
		// scaled = idx * size (shift when power of two)
		scaled := s.newVReg(false)
		if size&(size-1) == 0 {
			k := 0
			for sz := size; sz > 1; sz >>= 1 {
				k++
			}
			if k == 0 {
				scaled = idx
			} else {
				amt := s.newVReg(false)
				s.synthImm(amt, int64(k))
				s.emitALU(target.AShl, scaled, idx, amt, 8, true, false)
			}
		} else {
			szr := s.newVReg(false)
			s.synthImm(szr, size)
			s.emitALU(target.AMul, scaled, idx, szr, 8, true, false)
		}
		nr := s.newVReg(false)
		s.emitALU(target.AAdd, nr, cur, scaled, 8, false, false)
		cur = nr
	}
	if cur != rd {
		s.emit(target.MInstr{Op: target.MMovRR, Rd: rd, Rs1: cur})
	}
}

func (s *selector) selLoad(in *core.Instruction) {
	t := in.Type()
	m := s.addr(in.Operand(0))
	s.emit(target.MInstr{Op: target.MLoad, Rd: s.vreg[in], Base: m.base,
		Index: m.index, Scale: m.scale, Disp: m.disp, Size: s.sizeOf(t),
		Signed: t.IsSigned(), FP: isFPType(t), NoTrap: !in.ExceptionsEnabled})
}

func (s *selector) selStore(in *core.Instruction) {
	t := in.Operand(0).Type()
	v := s.val(in.Operand(0))
	m := s.addr(in.Operand(1))
	s.emit(target.MInstr{Op: target.MStore, Rs1: v, Base: m.base,
		Index: m.index, Scale: m.scale, Disp: m.disp, Size: s.sizeOf(t),
		FP: isFPType(t), NoTrap: !in.ExceptionsEnabled})
}

// selAlloca produces the address of a frame-preallocated alloca, or
// adjusts SP for dynamically-sized ones.
func (s *selector) selAlloca(in *core.Instruction) {
	rd := s.vreg[in]
	if off, fixed := s.allocaOff[in]; fixed {
		// address = FP - off
		if s.desc.MemOperands {
			s.emit(target.MInstr{Op: target.MLea, Rd: rd, Base: s.desc.FP,
				Index: target.NoReg, Disp: -off, HasMem: true})
			return
		}
		t := s.newVReg(false)
		s.synthImm(t, int64(-off))
		s.emitALU(target.AAdd, rd, s.desc.FP, t, 8, false, false)
		return
	}
	// Dynamic alloca: SP -= round16(count * size); rd = SP.
	size := s.lay.Size(in.Allocated)
	count := s.val(in.Operand(0))
	bytes := s.newVReg(false)
	szr := s.newVReg(false)
	s.synthImm(szr, size)
	s.emitALU(target.AMul, bytes, count, szr, 8, false, false)
	// align up to 16
	fifteen := s.newVReg(false)
	s.synthImm(fifteen, 15)
	s.emit(target.MInstr{Op: target.MALU, Alu: target.AAdd, Rd: bytes,
		Rs1: bytes, Rs2: fifteen, Size: 8})
	mask := s.newVReg(false)
	s.synthImm(mask, ^int64(15))
	s.emit(target.MInstr{Op: target.MALU, Alu: target.AAnd, Rd: bytes,
		Rs1: bytes, Rs2: mask, Size: 8})
	s.emit(target.MInstr{Op: target.MALU, Alu: target.ASub, Rd: s.desc.SP,
		Rs1: s.desc.SP, Rs2: bytes, Size: 8})
	s.emit(target.MInstr{Op: target.MMovRR, Rd: rd, Rs1: s.desc.SP})
}

func (s *selector) selCast(in *core.Instruction) {
	from := in.Operand(0).Type()
	to := in.Type()
	src := s.val(in.Operand(0))
	rd := s.vreg[in]
	switch {
	case from == to, !from.IsFloat() && !to.IsFloat() && s.sizeOf(to) == 8:
		// Identity casts — to the same type, or any integer, bool or
		// pointer to a 64-bit one, whose register image is already
		// canonical — are copies, for the coalescer to remove.
		s.emit(target.MInstr{Op: target.MMovRR, Rd: rd, Rs1: src, FP: isFPType(to)})
	case to.Kind() == core.BoolKind:
		// int/float/pointer -> bool is a != 0 test.
		if from.IsFloat() {
			z := s.newVReg(true)
			zi := s.newVReg(false)
			s.synthImm(zi, 0)
			s.emit(target.MInstr{Op: target.MCvt, Cvt: target.CvtBits, Rd: z,
				Rs1: zi, FP: true, Size: 8})
			if s.desc.HasFlags {
				s.emit(target.MInstr{Op: target.MCmp, Rs1: src, Rs2: z, FP: true})
				s.emit(target.MInstr{Op: target.MSetCC, Cnd: target.CondNE, Rd: rd})
			} else {
				s.emit(target.MInstr{Op: target.MSetCC, Cnd: target.CondNE,
					Rd: rd, Rs1: src, Rs2: z, FP: true})
			}
			return
		}
		if s.desc.HasFlags {
			s.emit(target.MInstr{Op: target.MCmp, Rs1: src, Rs2: target.NoReg,
				HasImm: true, Imm: 0})
			s.emit(target.MInstr{Op: target.MSetCC, Cnd: target.CondNE, Rd: rd})
		} else {
			s.emit(target.MInstr{Op: target.MSetCC, Cnd: target.CondNE,
				Rd: rd, Rs1: src, Rs2: target.VSZero})
		}
	case from.IsFloat() && to.IsFloat():
		s.emit(target.MInstr{Op: target.MCvt, Cvt: target.CvtFToF, Rd: rd,
			Rs1: src, Size: s.sizeOf(to)})
	case from.IsFloat():
		s.emit(target.MInstr{Op: target.MCvt, Cvt: target.CvtFToInt, Rd: rd,
			Rs1: src, Size: s.sizeOf(to), Signed: to.IsSigned()})
	case to.IsFloat():
		s.emit(target.MInstr{Op: target.MCvt, Cvt: target.CvtIntToF, Rd: rd,
			Rs1: src, Size: s.sizeOf(to), Signed: from.IsSigned()})
	default:
		// int/bool/pointer -> int/pointer: re-canonicalize at the
		// destination width and signedness.
		s.emit(target.MInstr{Op: target.MCvt, Cvt: target.CvtIntExt, Rd: rd,
			Rs1: src, Size: s.sizeOf(to), Signed: to.IsSigned()})
	}
}
