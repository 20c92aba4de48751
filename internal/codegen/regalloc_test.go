package codegen

import (
	"slices"
	"testing"

	"llva/internal/target"
	"llva/internal/workloads"
)

// Hand-built machine IR for the allocator's table tests: nv virtual
// registers (all integer) and one instruction list per block.
func mirSelector(d *target.Desc, nv int, blocks ...[]target.MInstr) *selector {
	s := &selector{desc: d, vFP: make([]bool, nv), ws: new(workspace)}
	for _, b := range blocks {
		s.blockStart = append(s.blockStart, len(s.code))
		s.code = append(s.code, b...)
	}
	s.blockStart = append(s.blockStart, len(s.code)) // epilogue label
	return s
}

// computeLiveness is everything the linear scan needs to know about
// s.code as it stands: its block-level liveness and the intervals built
// from it.
func computeLiveness(s *selector) *liveness { return solveLiveness(s).intervals(s) }

func vr(i int) target.Reg { return target.VRegBase + target.Reg(i) }

func movi(rd target.Reg, imm int64) target.MInstr {
	return target.MInstr{Op: target.MMovRI, Rd: rd, Imm: imm}
}

func add(rd, a, b target.Reg) target.MInstr {
	return target.MInstr{Op: target.MALU, Alu: target.AAdd, Rd: rd, Rs1: a, Rs2: b, Size: 8}
}

func jmp(block int32) target.MInstr { return target.MInstr{Op: target.MJmp, Target: block} }

func jcc(r target.Reg, block int32) target.MInstr {
	return target.MInstr{Op: target.MJcc, Rs1: r, Target: block}
}

func storeFP(r target.Reg, d *target.Desc) target.MInstr {
	return target.MInstr{Op: target.MStore, Rs1: r, Base: d.FP, Index: target.NoReg, Size: 8}
}

func forced(lv *liveness) []int {
	var out []int
	for v := range lv.ivals {
		if hasBit(lv.forceSpill, v) {
			out = append(out, v)
		}
	}
	return out
}

// A value read only at the top of a loop is still live around the back
// edge: its interval must reach the loop's last instruction.
func TestLivenessLoopBackEdge(t *testing.T) {
	s := mirSelector(target.VSPARC, 3,
		[]target.MInstr{movi(vr(0), 7), jmp(1)},                                                    // 0 1
		[]target.MInstr{add(vr(1), vr(0), vr(0)), add(vr(2), vr(1), vr(1)), jcc(vr(2), 1), jmp(2)}, // 2 3 4 5
		[]target.MInstr{jmp(3)}, // 6
	)
	lv := computeLiveness(s)
	want := [][2]int{{0, 5}, {2, 3}, {3, 4}}
	for v, w := range want {
		if iv := lv.ivals[v]; iv.start != w[0] || iv.end != w[1] || iv.cross {
			t.Errorf("v%d: interval [%d,%d] cross=%v, want [%d,%d] not crossing", v, iv.start, iv.end, iv.cross, w[0], w[1])
		}
	}
	if !slices.Equal(lv.order, []uint64{0<<32 | 0, 2<<32 | 1, 3<<32 | 2}) {
		t.Errorf("scan order %#x, want v0 at 0, v1 at 2, v2 at 3", lv.order)
	}
	if f := forced(lv); f != nil {
		t.Errorf("force-spilled %v in a function without invokes", f)
	}
}

// Values live into an unwind handler are force-spilled; a value live
// across the invoke on the normal path only takes a callee-saved
// register like across any call.
func TestLivenessInvokeHandlerForceSpill(t *testing.T) {
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		s := mirSelector(d, 4,
			[]target.MInstr{movi(vr(0), 1), movi(vr(1), 2), // 0 1
				{Op: target.MInvokePush, Target: 2}, {Op: target.MCall, Sym: "g"}, jmp(1)}, // 2 3 4
			[]target.MInstr{add(vr(2), vr(1), vr(1)), jmp(3)}, // 5 6
			[]target.MInstr{add(vr(3), vr(0), vr(0)), jmp(3)}, // 7 8: the handler
		)
		lv := computeLiveness(s)
		if f := forced(lv); !slices.Equal(f, []int{0}) {
			t.Errorf("%s: force-spilled %v, want [0]", d.Name, f)
		}
		if !lv.ivals[0].cross || !lv.ivals[1].cross || lv.ivals[2].cross {
			t.Errorf("%s: call crossing v0=%v v1=%v v2=%v, want true true false", d.Name,
				lv.ivals[0].cross, lv.ivals[1].cross, lv.ivals[2].cross)
		}
		a := linearScan(s, lv, false)
		if a.slotOf[0] < 0 || a.assigned[0] != target.NoReg {
			t.Errorf("%s: handler-live v0 not in a frame slot (slot %d, reg %v)", d.Name, a.slotOf[0], a.assigned[0])
		}
		if r := a.assigned[1]; !slices.Contains(d.Allocatable, r) {
			t.Errorf("%s: call-crossing v1 in %v, want a callee-saved register", d.Name, r)
		}
		if !slices.Contains(a.saved, a.assigned[1]) {
			t.Errorf("%s: prologue saves %v, missing v1's %v", d.Name, a.saved, a.assigned[1])
		}
	}
}

// Register counts on either side of the bitset's word boundaries: every
// register is defined in the entry, stays live through a loop and is
// read after it, so each row of the slab carries every bit.
func TestLivenessWordBoundaries(t *testing.T) {
	d := target.VSPARC
	for _, nv := range []int{0, 63, 64, 65, 129} {
		var entry, exit []target.MInstr
		for v := 0; v < nv; v++ {
			entry = append(entry, movi(vr(v), int64(v)))
			exit = append(exit, storeFP(vr(v), d))
		}
		entry = append(entry, jmp(1))
		exit = append(exit, jmp(3))
		loop := []target.MInstr{jcc(target.VSZero, 1), jmp(2)}
		s := mirSelector(d, nv, entry, loop, exit)

		lv := computeLiveness(s)
		if len(lv.order) != nv {
			t.Fatalf("nv=%d: %d intervals", nv, len(lv.order))
		}
		for v := 0; v < nv; v++ {
			use := nv + 3 + v // entry (nv+1) and loop (2) precede the stores
			if iv := lv.ivals[v]; iv.start != v || iv.end != use || lv.order[v] != uint64(v)<<32|uint64(v) {
				t.Errorf("nv=%d v%d: interval [%d,%d], scan key %#x; want [%d,%d], the %d'th to start",
					nv, v, iv.start, iv.end, lv.order[v], v, use, v)
			}
		}
		if f := forced(lv); f != nil {
			t.Errorf("nv=%d: force-spilled %v", nv, f)
		}

		// All nv intervals overlap: the scan fills the pools and spills
		// the rest, and the rewrite touches every slot.
		a := linearScan(s, lv, false)
		inRegs := 0
		for v := 0; v < nv; v++ {
			if (a.assigned[v] != target.NoReg) == (a.slotOf[v] >= 0) {
				t.Errorf("nv=%d v%d: register %v and slot %d", nv, v, a.assigned[v], a.slotOf[v])
			}
			if a.assigned[v] != target.NoReg {
				inRegs++
			}
		}
		pool := len(d.Allocatable) + len(d.CallerSaved)
		if want := min(nv, pool); inRegs != want || int(a.nSlots) != nv-want {
			t.Errorf("nv=%d: %d in registers, %d slots; want %d, %d",
				nv, inRegs, a.nSlots, want, nv-want)
		}
		r := rewriteWithSlots(s, a)
		if r.stores != int(a.nSlots) || r.loads != int(a.nSlots) {
			t.Errorf("nv=%d: %d spill stores and %d reloads for %d slots", nv, r.stores, r.loads, a.nSlots)
		}
	}
}

// suiteSelectors runs instruction selection over every function of the
// workload suite for d.
func suiteSelectors(tb testing.TB, d *target.Desc) []*selector {
	tb.Helper()
	var sels []*selector
	for _, w := range workloads.All() {
		m, err := w.CompileOptimized()
		if err != nil {
			tb.Fatal(err)
		}
		tr, err := New(d, m)
		if err != nil {
			tb.Fatal(err)
		}
		for _, f := range m.Functions {
			if f.IsDeclaration() {
				continue
			}
			s := newSelector(tr, f, new(workspace))
			s.run()
			sels = append(sels, s)
		}
	}
	return sels
}

var benchSink int

// BenchmarkAllocLinear prices register allocation alone — liveness,
// scan and rewrite — over every function of the suite, per target.
func BenchmarkAllocLinear(b *testing.B) {
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		b.Run(d.Name, func(b *testing.B) {
			sels := suiteSelectors(b, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range sels {
					a := linearScan(s, computeLiveness(s), false)
					benchSink += len(rewriteWithSlots(s, a).code)
				}
			}
		})
	}
}
