package codegen

import (
	"slices"
	"testing"

	"llva/internal/target"
)

func mov(rd, rs target.Reg) target.MInstr {
	return target.MInstr{Op: target.MMovRR, Rd: rd, Rs1: rs}
}

// coalesceMIR coalesces hand-built machine IR and returns the moves left,
// as (destination, source) register numbers.
func coalesceMIR(s *selector) (lr *liveRows, movs [][2]int) {
	lr = solveLiveness(s)
	coalesce(s, lr)
	for i := range s.code {
		if m := &s.code[i]; m.Op == target.MMovRR {
			movs = append(movs, [2]int{int(m.Rd - target.VRegBase), int(m.Rs1 - target.VRegBase)})
		}
	}
	return lr, movs
}

// checkBlocks holds the block table to the code after a pass that deletes
// instructions: every block still ends in its jump.
func checkBlocks(t *testing.T, s *selector) {
	t.Helper()
	for b := 0; b+1 < len(s.blockStart); b++ {
		first, end := s.blockStart[b], s.blockStart[b+1]
		if first >= end || s.code[end-1].Op != target.MJmp {
			t.Errorf("block %d is [%d,%d) and does not end in its jump", b, first, end)
		}
	}
	if last := s.blockStart[len(s.blockStart)-1]; last != len(s.code) {
		t.Errorf("epilogue label at %d, code ends at %d", last, len(s.code))
	}
}

// The swap problem, in the form the selector emits it: two φs (v0, v1) of
// one header exchange values each iteration through their carriers (v2,
// v3). The initial values fold into the carriers and one φ into its
// carrier; the three moves a swap needs stay.
func TestCoalesceMIRSwap(t *testing.T) {
	s := mirSelector(target.VX86, 8,
		[]target.MInstr{movi(vr(4), 1), movi(vr(5), 2), movi(vr(7), 0), mov(vr(2), vr(4)), mov(vr(3), vr(5)), jmp(1)},
		[]target.MInstr{mov(vr(0), vr(2)), mov(vr(1), vr(3)), add(vr(6), vr(0), vr(1)), add(vr(7), vr(7), vr(6)),
			mov(vr(2), vr(1)), mov(vr(3), vr(0)), jcc(vr(6), 1), jmp(2)},
		[]target.MInstr{storeFP(vr(7), target.VX86), jmp(3)},
	)
	_, movs := coalesceMIR(s)
	// Carrier v2 took v4's place and v3 took v5's and v1's.
	want := [][2]int{{0, 2}, {2, 3}, {3, 0}}
	if !slices.Equal(movs, want) {
		t.Errorf("moves left %v, want %v: v0=carrier, then the exchange through it", movs, want)
	}
	checkBlocks(t, s)
}

// The lost copy: the latch writes the carrier (v1) of φ v0 and reads v0
// afterwards, so the two cannot share a register; the increment's result
// (v2) can be the carrier.
func TestCoalesceMIRLostCopy(t *testing.T) {
	s := mirSelector(target.VX86, 5,
		[]target.MInstr{movi(vr(3), 0), mov(vr(1), vr(3)), jmp(1)},
		[]target.MInstr{mov(vr(0), vr(1)), add(vr(2), vr(0), vr(0)), mov(vr(1), vr(2)),
			add(vr(4), vr(0), vr(0)), jcc(vr(4), 1), jmp(2)},
		[]target.MInstr{storeFP(vr(0), target.VX86), jmp(3)},
	)
	_, movs := coalesceMIR(s)
	if want := [][2]int{{0, 1}}; !slices.Equal(movs, want) {
		t.Errorf("moves left %v, want %v", movs, want)
	}
	// Without the read after the copy the φ is its carrier is the increment.
	s = mirSelector(target.VX86, 5,
		[]target.MInstr{movi(vr(3), 0), mov(vr(1), vr(3)), jmp(1)},
		[]target.MInstr{mov(vr(0), vr(1)), add(vr(2), vr(0), vr(0)), mov(vr(1), vr(2)),
			jcc(vr(2), 1), jmp(2)},
		[]target.MInstr{storeFP(vr(2), target.VX86), jmp(3)},
	)
	if _, movs = coalesceMIR(s); movs != nil {
		t.Errorf("moves left %v, want none", movs)
	}
	if in := s.code[s.blockStart[1]]; in.Op != target.MALU || in.Rd != in.Rs1 {
		t.Errorf("loop body is %s, want the increment in place", in.String())
	}
	checkBlocks(t, s)
}

// A φ (v0) live on the loop's exit edge: the latch's carrier copy sits
// before the conditional branch, where v0 is still wanted by the exit.
func TestCoalesceMIRExitLive(t *testing.T) {
	s := mirSelector(target.VX86, 4,
		[]target.MInstr{movi(vr(1), 0), jmp(1)},
		[]target.MInstr{mov(vr(0), vr(1)), add(vr(2), vr(0), vr(0)), mov(vr(1), vr(2)), jcc(vr(2), 1), jmp(2)},
		[]target.MInstr{storeFP(vr(0), target.VX86), jmp(3)},
	)
	_, movs := coalesceMIR(s)
	if want := [][2]int{{0, 1}}; !slices.Equal(movs, want) {
		t.Errorf("moves left %v, want %v: the exit reads the φ of the last iteration", movs, want)
	}
}

// A φ fed by a constant and by itself is one register and no move.
func TestCoalesceMIRSelfFed(t *testing.T) {
	s := mirSelector(target.VSPARC, 4,
		[]target.MInstr{movi(vr(2), 7), mov(vr(1), vr(2)), jmp(1)},
		[]target.MInstr{mov(vr(0), vr(1)), add(vr(3), vr(0), vr(0)), mov(vr(1), vr(0)), jcc(vr(3), 1), jmp(2)},
		[]target.MInstr{storeFP(vr(0), target.VSPARC), jmp(3)},
	)
	_, movs := coalesceMIR(s)
	if movs != nil {
		t.Errorf("moves left %v, want none", movs)
	}
	if in := s.code[0]; in.Op != target.MMovRI || in.Imm != 7 || in.Rd != s.code[2].Rs1 {
		t.Errorf("entry is %s, want the constant written to the register the loop reads", in.String())
	}
}

// Register classes do not mix: a move between an integer and a
// floating-point register is not a copy to coalesce, whatever its flags.
func TestCoalesceMIRClasses(t *testing.T) {
	s := mirSelector(target.VX86, 4,
		[]target.MInstr{movi(vr(0), 1), mov(vr(1), vr(0)), mov(vr(2), vr(1)), mov(vr(3), vr(2)), storeFP(vr(3), target.VX86), jmp(1)},
	)
	s.vFP[2], s.vFP[3] = true, true
	_, movs := coalesceMIR(s)
	if want := [][2]int{{3, 1}}; !slices.Equal(movs, want) {
		t.Errorf("moves left %v, want %v: v1 and v2 differ in class", movs, want)
	}
	for v, fp := range s.vFP {
		for i := range s.code {
			m := &s.code[i]
			if m.Rd == vr(v) && m.Op == target.MMovRI && fp {
				t.Errorf("the constant lands in floating-point v%d", v)
			}
		}
	}
}

// A value live into an unwind handler stays force-spilled when it is
// merged under another register's name.
func TestCoalesceMIRHandlerLive(t *testing.T) {
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		s := mirSelector(d, 4,
			[]target.MInstr{movi(vr(0), 1), {Op: target.MInvokePush, Target: 2}, {Op: target.MCall, Sym: "g"}, jmp(1)},
			[]target.MInstr{mov(vr(1), vr(0)), add(vr(2), vr(1), vr(1)), jmp(3)},
			[]target.MInstr{add(vr(3), vr(0), vr(0)), jmp(3)}, // the handler reads v0
		)
		lr, movs := coalesceMIR(s)
		if movs != nil {
			t.Fatalf("%s: moves left %v, want none", d.Name, movs)
		}
		// The class is named v1, the copy's destination; v0 is gone.
		lv := lr.intervals(s)
		if f := forced(lv); !slices.Equal(f, []int{1}) {
			t.Errorf("%s: force-spilled %v, want [1]", d.Name, f)
		}
		if lv.ivals[0].start >= 0 {
			t.Errorf("%s: v0 still has an interval", d.Name)
		}
		if a := linearScan(s, lv, false); a.slotOf[1] < 0 {
			t.Errorf("%s: the merged register is in %v, not in a frame slot", d.Name, a.assigned[1])
		}
	}
}

// The renamed rows are the renamed code's liveness: solving again gives
// the same intervals, on every function of the suite.
func TestCoalesceKeepsLiveness(t *testing.T) {
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		merged := 0
		for _, s := range suiteSelectors(t, d, false) {
			before := len(s.code)
			lr := solveLiveness(s)
			coalesce(s, lr)
			merged += before - len(s.code)
			got, want := lr.intervals(s), computeLiveness(s)
			for v := range want.ivals {
				g, w := got.ivals[v], want.ivals[v]
				if g != w {
					t.Errorf("%s %s v%d: renamed rows give [%d,%d], solving again [%d,%d]",
						d.Name, s.f.Name(), v, g.start, g.end, w.start, w.end)
				}
			}
			if !slices.Equal(forced(got), forced(want)) {
				t.Errorf("%s %s: force-spill sets differ", d.Name, s.f.Name())
			}
		}
		if merged == 0 {
			t.Errorf("%s: no copy coalesced on the whole suite", d.Name)
		}
	}
}
