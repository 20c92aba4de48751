package codegen

import (
	"slices"
	"testing"

	"llva/internal/target"
)

// TestElideUnreachableJumps holds elideFallthroughs to the jumps it may
// delete besides fall-through ones: a jump-only block that threadJumps
// left without entries, and that nothing falls into, goes; a jump a
// branch targets, or one the instruction before it falls into, stays.
func TestElideUnreachableJumps(t *testing.T) {
	jmp := func(b int32) target.MInstr { return target.MInstr{Op: target.MJmp, Target: b} }
	jcc := func(b int32) target.MInstr { return target.MInstr{Op: target.MJcc, Cnd: target.CondEQ, Target: b} }
	nop := mov(target.VRegBase, target.VRegBase+1)
	ret := target.MInstr{Op: target.MRet}
	for _, c := range []struct {
		name      string
		code      []target.MInstr
		start     []int
		thread    bool
		want      []target.MInstr
		wantStart []int
	}{{
		// b1 and b2 are jumps only. Threading sends b0's branches past
		// them, so nothing enters either: b0 ends in a jump, b1's jump
		// cannot fall into b2. b4's jump is entered by b3's fall-through.
		name:      "threaded",
		code:      []target.MInstr{nop, jcc(1), jmp(2), jmp(3), jmp(0), nop, jcc(0), jmp(2), ret},
		start:     []int{0, 3, 4, 5, 7, 8},
		thread:    true,
		want:      []target.MInstr{nop, jcc(3), jmp(0), nop, jcc(0), jmp(0), ret},
		wantStart: []int{0, 3, 3, 3, 5, 6},
	}, {
		// b1 is a jump only and follows b0's jump, but b0's branch enters
		// it: it stays, and so does b0's jump over it.
		name:      "targeted",
		code:      []target.MInstr{nop, jcc(1), jmp(2), jmp(0), ret},
		start:     []int{0, 3, 4},
		want:      []target.MInstr{nop, jcc(1), jmp(2), jmp(0), ret},
		wantStart: []int{0, 3, 4},
	}} {
		t.Run(c.name, func(t *testing.T) {
			s := &selector{code: slices.Clone(c.code), blockStart: slices.Clone(c.start)}
			if c.thread {
				threadJumps(s)
			}
			elideFallthroughs(s)
			if !slices.Equal(s.code, c.want) {
				t.Errorf("code %v, want %v", s.code, c.want)
			}
			if !slices.Equal(s.blockStart, c.wantStart) {
				t.Errorf("block starts %v, want %v", s.blockStart, c.wantStart)
			}
		})
	}
}
