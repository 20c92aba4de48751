package codegen

import (
	"math/bits"

	"llva/internal/core"
	"llva/internal/target"
)

// memOperand is a target addressing-mode expression: base + index*scale
// + disp, where a global variable's symbol may stand in for the base
// (vx86: the loader adds the global's address to disp, an absolute
// displacement).
type memOperand struct {
	base  target.Reg
	index target.Reg
	scale uint8
	disp  int32
	sym   string
}

// gepFoldable reports whether a GEP can fold entirely into the addressing
// modes of its (memory-instruction) users instead of computing an address
// value — the translator's pattern fusion (paper, Section 3.1). A GEP has
// to have one such user, unless it addresses a global through an absolute
// displacement: that fold costs every user nothing, and keeps no address
// live in a register between them.
func (s *selector) gepFoldable(in *core.Instruction) bool {
	if in.NumUses() == 0 {
		return false
	}
	if in.NumUses() > 1 {
		if _, _, local, _ := s.gepShift(in); local {
			return true
		}
		if m, _, ok := s.gepMode(in); !ok || m.sym == "" {
			return false
		}
	}
	for _, u := range in.UseList() {
		switch u.User.Op() {
		case core.OpLoad:
		case core.OpStore:
			if u.Index != 1 { // only as the address operand
				return false
			}
		default:
			return false
		}
	}
	return true
}

// gepAffine splits a GEP's address into its base pointer plus a constant
// byte offset plus at most one dynamic index times its scale, or
// ok=false when two or more indices are dynamic.
func (s *selector) gepAffine(in *core.Instruction) (off int64, idx core.Value, scale int64, ok bool) {
	cur := in.Operand(0).Type().Elem()
	for i, op := range in.Operands()[1:] {
		size := s.lay.Size(cur)
		if i > 0 {
			switch cur.Kind() {
			case core.StructKind:
				fi := int(op.(*core.Constant).Int64())
				off += s.lay.FieldOffset(cur, fi)
				cur = cur.Fields()[fi]
				continue
			case core.ArrayKind:
				cur = cur.Elem()
				size = s.lay.Size(cur)
			}
		}
		if c, isConst := op.(*core.Constant); isConst && c.CK == core.ConstInt {
			off += c.Int64() * size
			continue
		}
		if idx != nil {
			return 0, nil, 0, false
		}
		idx, scale = op, size
	}
	return off, idx, scale, true
}

// gepMode returns the one addressing mode a GEP's address is, [base +
// idx*scale + off] with a global's symbol standing in for the base when
// the GEP is off one (vx86), but with its base and index still LLVA
// values; or ok=false: the GEP has two dynamic indices, or its scale or
// offset is not one of the target's forms (Desc.AddrFits). On vsparc
// that leaves [base + off] and a one-byte element's [base + idx].
func (s *selector) gepMode(in *core.Instruction) (m memOperand, idx core.Value, ok bool) {
	off, idx, scale, ok := s.gepAffine(in)
	sym := s.globalSym(in.Operand(0))
	if !ok || !s.desc.AddrFits(target.Addr{Sym: sym != "", Index: idx != nil, Scale: scale, Disp: off}) {
		return m, nil, false
	}
	return memOperand{base: target.NoReg, index: target.NoReg, scale: uint8(scale),
		disp: int32(off), sym: sym}, idx, true
}

// gepShift reports whether a GEP's address is [base + (idx << k)] on a
// target whose indexed form takes no scale (vsparc, SPARC V9's [rs1 +
// rs2]): the GEP has one dynamic index, no constant offset and an
// element of 2^k bytes. local reports whether every use is the address
// of a load or store in the GEP's own block: then the shift is selected
// once, at the GEP, into the GEP's own register, which holds nothing else
// (with k = 0 there is none: the uses read idx). A GEP with one use
// elsewhere is shifted at that use, where its address used to be
// computed.
func (s *selector) gepShift(in *core.Instruction) (idx core.Value, k int, local, ok bool) {
	d := s.desc
	if !d.AddrFits(target.Addr{Index: true, Scale: 1}) || d.AddrFits(target.Addr{Index: true, Scale: 2}) ||
		in.NumUses() == 0 {
		return nil, 0, false, false
	}
	off, idx, scale, ok := s.gepAffine(in)
	if !ok || idx == nil || off != 0 || scale <= 0 || scale&(scale-1) != 0 {
		return nil, 0, false, false
	}
	local = true
	for _, u := range in.UseList() {
		local = local && u.User.Parent() == in.Parent() &&
			(u.User.Op() == core.OpLoad || u.User.Op() == core.OpStore && u.Index == 1)
	}
	return idx, bits.TrailingZeros64(uint64(scale)), local, true
}

// gepOperand selects the registers of gepMode's operand.
func (s *selector) gepOperand(in *core.Instruction, m memOperand, idx core.Value) memOperand {
	if m.sym == "" {
		m.base = s.val(in.Operand(0))
	}
	if idx != nil {
		m.index = s.val(idx)
	}
	return m
}

// globalSym returns the name of the global variable whose address v is,
// when the target addresses memory through an absolute displacement
// (vx86), and "" otherwise.
func (s *selector) globalSym(v core.Value) string {
	if !s.desc.AddrFits(target.Addr{Sym: true}) {
		return ""
	}
	switch x := v.(type) {
	case *core.GlobalVariable:
		return x.Name()
	case *core.Constant:
		if g, ok := x.Ref.(*core.GlobalVariable); ok && x.CK == core.ConstGlobal {
			return g.Name()
		}
	}
	return ""
}

// addr lowers a pointer operand into a memory operand, folding a
// foldable GEP into base+index*scale+disp where the target allows, and a
// global's address into the displacement (vx86).
func (s *selector) addr(ptr core.Value) memOperand {
	if sym := s.globalSym(ptr); sym != "" {
		return memOperand{base: target.NoReg, index: target.NoReg, sym: sym}
	}
	in, ok := ptr.(*core.Instruction)
	if !ok || in.Op() != core.OpGetElementPtr || !s.gepFoldable(in) {
		return memOperand{base: s.val(ptr), index: target.NoReg}
	}
	if m, idx, ok := s.gepMode(in); ok {
		return s.gepOperand(in, m, idx)
	}
	if idx, k, local, ok := s.gepShift(in); ok {
		// [base + (idx << k)] (vsparc), shifted at the GEP or here
		m := memOperand{base: s.val(in.Operand(0)), index: s.reg(in), scale: 1}
		if !local {
			m.index = s.newVReg(false)
			s.emitALUImm(target.AShl, m.index, s.val(idx), int64(k))
		}
		return m
	}
	// All-constant indices beyond the displacement range.
	if off, idx, _, ok := s.gepAffine(in); ok && idx == nil {
		return memOperand{base: s.addImm(s.val(in.Operand(0)), off), index: target.NoReg}
	}
	// General: compute the address, use it directly.
	s.computeGEP(in)
	return memOperand{base: s.reg(in), index: target.NoReg}
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
	s.emitALUImm(target.AAdd, rd, base, off)
	return rd
}

// computeGEP materializes a GEP's address into its virtual register.
func (s *selector) computeGEP(in *core.Instruction) {
	// One addressing mode: one lea rd, [base + idx*scale + off] (vx86).
	if m, idx, ok := s.gepMode(in); ok && s.desc.MemOperands && (m.sym != "" || idx != nil || m.disp != 0) {
		m = s.gepOperand(in, m, idx)
		s.emit(target.MInstr{Op: target.MLea, Rd: s.reg(in), Base: m.base,
			Index: m.index, Scale: m.scale, Disp: m.disp, Sym: m.sym, HasMem: true})
		return
	}
	cur := s.val(in.Operand(0))
	curType := in.Operand(0).Type().Elem()
	rd := s.reg(in)

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
		if s.desc.MemOperands && s.desc.AddrFits(target.Addr{Index: true, Scale: size}) {
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
				s.emitALUImm(target.AShl, scaled, idx, int64(k))
			}
		} else {
			s.emitALUImm(target.AMul, scaled, idx, size)
		}
		nr := s.newVReg(false)
		s.emitALU(target.AAdd, nr, cur, scaled, 8, false, false)
		cur = nr
	}
	if cur != rd {
		s.emit(target.MInstr{Op: target.MMovRR, Rd: rd, Rs1: cur})
	}
}

// emitALUImm emits rd = rs1 <alu> imm on 64-bit signed words, with imm
// as the instruction's immediate where it is in the target's range and
// synthesized into a register where not.
func (s *selector) emitALUImm(alu target.ALUOp, rd, rs1 target.Reg, imm int64) {
	if s.desc.ImmFits(imm) {
		s.emit(target.MInstr{Op: target.MALU, Alu: alu, Rd: rd, Rs1: rs1,
			HasImm: true, Imm: imm, Size: 8, Signed: true})
		return
	}
	r := s.newVReg(false)
	s.synthImm(r, imm)
	s.emitALU(alu, rd, rs1, r, 8, true, false)
}

func (s *selector) selLoad(in *core.Instruction) {
	t := in.Type()
	m := s.addr(in.Operand(0))
	isBool := t.Kind() == core.BoolKind
	rd := s.reg(in)
	if isBool {
		rd = s.newVReg(false)
	}
	s.emit(target.MInstr{Op: target.MLoad, Rd: rd, Base: m.base,
		Index: m.index, Scale: m.scale, Disp: m.disp, Sym: m.sym, Size: s.sizeOf(t),
		Signed: t.IsSigned(), FP: isFPType(t), NoTrap: !in.ExceptionsEnabled})
	if isBool {
		// A bool is its byte's low bit (core.ScalarOf(bool).Canon).
		s.emitALUImm(target.AAnd, s.reg(in), rd, 1)
	}
}

func (s *selector) selStore(in *core.Instruction) {
	t := in.Operand(0).Type()
	v := s.val(in.Operand(0))
	m := s.addr(in.Operand(1))
	s.emit(target.MInstr{Op: target.MStore, Rs1: v, Base: m.base,
		Index: m.index, Scale: m.scale, Disp: m.disp, Sym: m.sym, Size: s.sizeOf(t),
		FP: isFPType(t), NoTrap: !in.ExceptionsEnabled})
}

// selAlloca produces the address of a frame-preallocated alloca, or
// adjusts SP for dynamically-sized ones.
func (s *selector) selAlloca(in *core.Instruction) {
	rd := s.reg(in)
	if off := s.vals[in.Num()].allocaOff; off != 0 {
		// address = FP - off
		if s.desc.MemOperands {
			s.emit(target.MInstr{Op: target.MLea, Rd: rd, Base: s.desc.FP,
				Index: target.NoReg, Disp: -off, HasMem: true})
			return
		}
		s.emitALUImm(target.AAdd, rd, s.desc.FP, int64(-off))
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
	rd := s.reg(in)
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
				s.emit(target.MInstr{Op: target.MSetCC, Cnd: target.CondNE, Rd: rd,
					Rs1: target.NoReg, Rs2: target.NoReg})
			} else {
				s.emit(target.MInstr{Op: target.MSetCC, Cnd: target.CondNE,
					Rd: rd, Rs1: src, Rs2: z, FP: true})
			}
			return
		}
		if s.desc.HasFlags {
			s.emit(target.MInstr{Op: target.MCmp, Rs1: src, HasImm: true, Imm: 0})
			s.emit(target.MInstr{Op: target.MSetCC, Cnd: target.CondNE, Rd: rd,
				Rs1: target.NoReg, Rs2: target.NoReg})
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
