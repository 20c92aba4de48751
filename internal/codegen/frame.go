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
// broken. The body is rewriteWithSlots' output, in the workspace's
// second code buffer; the framed code goes back into the first.
func addFrame(s *selector, perm []int) {
	ws := s.ws
	body, start := s.code, s.blockStart
	// Room for the body and a typical frame: a few instructions, plus a
	// save and a restore per callee-saved register. Appends grow past it.
	code := s.prologue(emptied(ws.code, len(body)+2*len(s.savedRegs)+24))
	if perm == nil {
		n := len(code)
		code = append(code, body...)
		for i := range start {
			start[i] += n
		}
	} else {
		newStart := zeroed(ws.start, len(start))
		for _, bi := range perm {
			newStart[bi] = len(code)
			code = append(code, body[start[bi]:start[bi+1]]...)
		}
		newStart[len(newStart)-1] = len(code)
		s.blockStart, ws.start = newStart, newStart
	}
	// blockStart's final entry is the epilogue label, pointing at the
	// first epilogue instruction.
	s.code = s.epilogue(code)
	ws.code = s.code
}

// prologue appends the function's prologue to code: the new frame, and
// the callee-saved registers the function uses stored into its save area.
func (s *selector) prologue(code []target.MInstr) []target.MInstr {
	d := s.desc
	if d.StackArgs {
		// vx86: the return address and the caller's FP sit above FP.
		frame := int64(s.saveArea) + int64(s.allocaBytes+s.spillBytes)
		frame = (frame + 15) &^ 15
		code = append(code,
			target.MInstr{Op: target.MPush, Rs1: d.FP},
			target.MInstr{Op: target.MMovRR, Rd: d.FP, Rs1: d.SP},
		)
		if frame > 0 {
			code = append(code, target.MInstr{Op: target.MAdjSP, Imm: -frame})
		}
		// Callee-saved registers actually used by this function, in the
		// save area directly below FP.
		for i, r := range s.savedRegs {
			code = frameInstrs(code, d, target.MStore, r, int32(-8*(i+1)), r.IsFP())
		}
		return code
	}
	frame := int64(s.saveArea) + int64(s.allocaBytes) + int64(s.spillBytes) +
		int64(8*s.maxStackArgs)
	frame = (frame + 15) &^ 15
	oldFPTmp := d.Scratch[1] // r12: free at function entry and exit
	code = append(code, target.MInstr{Op: target.MMovRR, Rd: oldFPTmp, Rs1: d.FP})
	code = append(code, target.MInstr{Op: target.MAdjSP, Imm: -frame})
	// FP <- SP + frame (the caller's SP)
	if d.ImmFits(frame) {
		code = append(code, target.MInstr{Op: target.MALU, Alu: target.AAdd,
			Rd: d.FP, Rs1: d.SP, HasImm: true, Imm: frame, Size: 8})
	} else {
		code = appendImm(code, target.Reg(31), frame, d)
		code = append(code, target.MInstr{Op: target.MALU, Alu: target.AAdd,
			Rd: d.FP, Rs1: d.SP, Rs2: 31, Size: 8})
	}
	// Save the return address and the caller's FP at the top of the
	// frame (frameInstrs synthesizes the address via the assembler
	// temporary when a save slot is beyond the displacement range). A
	// leaf, which calls nothing, keeps its return address in r3, as a
	// SPARC V9 leaf routine keeps %o7; its slot stays in the frame.
	if s.hasCalls {
		code = frameInstrs(code, d, target.MStore, target.Reg(3), -8, false) // RA
	}
	code = frameInstrs(code, d, target.MStore, oldFPTmp, -16, false)
	// Callee-saved registers actually used by this function.
	for i, r := range s.savedRegs {
		code = frameInstrs(code, d, target.MStore, r, int32(-24-8*i), r.IsFP())
	}
	return code
}

// epilogue appends the function's epilogue to code: the saved registers
// restored, the caller's frame back, and the return.
func (s *selector) epilogue(code []target.MInstr) []target.MInstr {
	d := s.desc
	if d.StackArgs {
		for i, r := range s.savedRegs {
			code = frameInstrs(code, d, target.MLoad, r, int32(-8*(i+1)), r.IsFP())
		}
		return append(code,
			target.MInstr{Op: target.MMovRR, Rd: d.SP, Rs1: d.FP},
			target.MInstr{Op: target.MPop, Rd: d.FP},
			target.MInstr{Op: target.MRet},
		)
	}
	oldFPTmp := d.Scratch[1]
	for i, r := range s.savedRegs {
		code = frameInstrs(code, d, target.MLoad, r, int32(-24-8*i), r.IsFP())
	}
	if s.hasCalls {
		code = frameInstrs(code, d, target.MLoad, target.Reg(3), -8, false)
	}
	code = frameInstrs(code, d, target.MLoad, oldFPTmp, -16, false)
	return append(code,
		target.MInstr{Op: target.MMovRR, Rd: d.SP, Rs1: d.FP},
		target.MInstr{Op: target.MMovRR, Rd: d.FP, Rs1: oldFPTmp},
		target.MInstr{Op: target.MRet},
	)
}
