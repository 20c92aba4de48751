package codegen

import (
	"llva/internal/target"
)

// addFrame puts the function body between its prologue and epilogue once
// the final frame size is known (allocas were preallocated during
// selection; spill slots were added by the register allocator). A
// non-nil perm — a permutation of the selector's block indices, entry
// first — places the blocks in that order on the way. Branch targets are
// block indices, so only the start table changes; every block ends in an
// explicit branch — ret lowers to a jump to the epilogue label, invoke
// to a jump to its normal successor — so no implicit fallthrough is
// broken.
func addFrame(s *selector, perm []int) {
	var prologue, epilogue []target.MInstr
	if s.desc.StackArgs {
		prologue, epilogue = frameVX86(s)
	} else {
		prologue, epilogue = frameVSPARC(s)
	}
	out := make([]target.MInstr, 0, len(prologue)+len(s.code)+len(epilogue))
	out = append(out, prologue...)
	if perm == nil {
		out = append(out, s.code...)
		for i := range s.blockStart {
			s.blockStart[i] += len(prologue)
		}
	} else {
		newStart := make([]int, len(s.blockStart))
		for _, bi := range perm {
			newStart[bi] = len(out)
			out = append(out, s.code[s.blockStart[bi]:s.blockStart[bi+1]]...)
		}
		newStart[len(newStart)-1] = len(out)
		s.blockStart = newStart
	}
	// blockStart's final entry is the epilogue label, pointing at the
	// first epilogue instruction.
	s.code = append(out, epilogue...)
}

func frameVX86(s *selector) (prologue, epilogue []target.MInstr) {
	d := s.desc
	frame := int64(s.saveArea) + int64(s.allocaBytes+s.spillBytes)
	frame = (frame + 15) &^ 15

	prologue = append(make([]target.MInstr, 0, 3+len(s.savedRegs)),
		target.MInstr{Op: target.MPush, Rs1: d.FP},
		target.MInstr{Op: target.MMovRR, Rd: d.FP, Rs1: d.SP},
	)
	if frame > 0 {
		prologue = append(prologue, target.MInstr{Op: target.MAdjSP, Imm: -frame})
	}
	// Callee-saved registers actually used by this function, in the save
	// area directly below FP.
	for i, r := range s.savedRegs {
		prologue = frameInstrs(prologue, d, target.MStore, r, int32(-8*(i+1)), r.IsFP())
	}
	epilogue = make([]target.MInstr, 0, 3+len(s.savedRegs))
	for i, r := range s.savedRegs {
		epilogue = frameInstrs(epilogue, d, target.MLoad, r, int32(-8*(i+1)), r.IsFP())
	}
	epilogue = append(epilogue,
		target.MInstr{Op: target.MMovRR, Rd: d.SP, Rs1: d.FP},
		target.MInstr{Op: target.MPop, Rd: d.FP},
		target.MInstr{Op: target.MRet},
	)
	return prologue, epilogue
}

func frameVSPARC(s *selector) (prologue, epilogue []target.MInstr) {
	d := s.desc
	frame := int64(s.saveArea) + int64(s.allocaBytes) + int64(s.spillBytes) +
		int64(8*s.maxStackArgs)
	frame = (frame + 15) &^ 15

	oldFPTmp := d.Scratch[1] // r12: free at function entry and exit

	// Capacities are hints: a far save slot's address synthesis grows past.
	prologue = make([]target.MInstr, 0, 12+len(s.savedRegs))
	prologue = append(prologue, target.MInstr{Op: target.MMovRR, Rd: oldFPTmp, Rs1: d.FP})
	prologue = append(prologue, target.MInstr{Op: target.MAdjSP, Imm: -frame})
	// FP <- SP + frame (the caller's SP)
	prologue = appendImm(prologue, target.Reg(31), frame, d)
	prologue = append(prologue, target.MInstr{Op: target.MALU, Alu: target.AAdd,
		Rd: d.FP, Rs1: d.SP, Rs2: 31, Size: 8})
	// Save return address and the caller's FP at the top of the frame
	// (frameInstrs synthesizes the address via the assembler temporary
	// when a save slot exceeds disp9 range; slots can reach -288 with
	// many callee-saved registers).
	prologue = frameInstrs(prologue, d, target.MStore, target.Reg(3), -8, false) // RA
	prologue = frameInstrs(prologue, d, target.MStore, oldFPTmp, -16, false)
	// Callee-saved registers actually used by this function.
	for i, r := range s.savedRegs {
		prologue = frameInstrs(prologue, d, target.MStore, r, int32(-24-8*i), r.IsFP())
	}

	epilogue = make([]target.MInstr, 0, 5+len(s.savedRegs))
	for i, r := range s.savedRegs {
		epilogue = frameInstrs(epilogue, d, target.MLoad, r, int32(-24-8*i), r.IsFP())
	}
	epilogue = frameInstrs(epilogue, d, target.MLoad, target.Reg(3), -8, false)
	epilogue = frameInstrs(epilogue, d, target.MLoad, oldFPTmp, -16, false)
	epilogue = append(epilogue,
		target.MInstr{Op: target.MMovRR, Rd: d.SP, Rs1: d.FP},
		target.MInstr{Op: target.MMovRR, Rd: d.FP, Rs1: oldFPTmp},
		target.MInstr{Op: target.MRet},
	)
	return prologue, epilogue
}
