package codegen

import "llva/internal/target"

// The flags pass (vx86). x86's add, sub, and, or, xor and shifts by an
// immediate set ZF, SF and OF from their result, so a test of that
// result against zero before a branch repeats work the ALU op did. On a
// target with flags, useALUFlags deletes each `cmp r, $0` whose flags
// already hold on every path into it and marks the ALU ops that leave
// them there (MInstr.SetsFlags): the op's flags are then what the
// deleted compare's were. Nothing is added: a deleted compare is never
// replaced.
//
// It is a forward dataflow over the framed, laid-out code, one fact per
// program point: the flags are a signed compare of register r with zero,
// set by flag-setting ALU ops on every path (known), or not (unknown).
//   - A flag-setting ALU op (target.Desc.SetsFlagsFits) makes them known
//     for its destination. Any other ALU op, a call, a stack adjustment,
//     a compare kept and every op not named below makes them unknown.
//   - mov, movi, load, store, push, pop, lea, setcc, jmp and jcc leave
//     them as they are, unless they write r.
//   - A compare of r with the immediate 0 whose consumer (the jcc or
//     setcc after it) tests eq or ne goes when the fact before it is
//     known for r. An ordered condition may test them only when every op
//     that set them is an and, or or xor whose register image carries the
//     result's sign (signed, or 64-bit), where x86 clears OF, and the
//     compare was signed.
//
// Because every ALU op writes x86's flags, a marked op must be the last
// ALU op on every path to the branch that reads it; the fact's kill rule
// is what makes it so. The one exception is in the op's own straight
// line: it may sink past later ALU ops and moves that neither read nor
// write what it reads or writes and cannot trap, as crafty's popcount
// loop needs (`x &= x - 1; n++`), when the next compare along the way
// tests its destination. A sink never crosses the start of a block.
//
// Where the target has no flags the pass does nothing.

// flagFact is what the flags hold before a program point.
type flagFact struct {
	kind uint8 // factTop (no path seen yet), factNone or factKnown
	// logic: every op that set the flags is an and, or or xor whose
	// register image carries the result's sign.
	logic bool
	reg   target.Reg // factKnown: the flags compare reg with zero
}

// flagState is the walk's fact and, while the walk has not left the
// straight line of the op that set the flags, that op (src, else -1)
// and whether it may still sink past everything after it (pass).
type flagState struct {
	flagFact
	src  int32
	pass bool
}

const (
	factTop uint8 = iota
	factNone
	factKnown
)

var (
	noFact  = flagFact{kind: factNone}
	unknown = flagState{flagFact: noFact, src: -1}
)

// meet is the fact at a point two paths reach with a and b.
func meet(a, b flagFact) flagFact {
	switch {
	case a.kind == factTop:
		return b
	case b.kind == factTop:
		return a
	case a.kind == factKnown && b.kind == factKnown && a.reg == b.reg:
		return flagFact{kind: factKnown, reg: a.reg, logic: a.logic && b.logic}
	}
	return noFact
}

// Point kinds for the walk (flagPoint.kind).
const (
	pointPlain   uint8 = iota
	pointStart         // a block starts here: no sink crosses it
	pointJoin          // a branch targets it
	pointHandler       // an invoke's handler: the unwinder enters it
)

// flagPoint is what the pass knows of one program point.
type flagPoint struct {
	kind  uint8    // pointPlain, pointStart, pointJoin or pointHandler
	entry flagFact // a join's: what the branches into it bring, met with what the walk assumed
}

const cmpGoes = -1 // flagsWalk.sink of a compare that goes

// flagsWalk is the pass's state, in the workspace. Its other tables are
// borrowed from stages that size them for the same code: sink is
// ws.offs, which layout fills next; the marking's visited table, then
// apply's renumbering, is ws.next, which elideFallthroughs filled before;
// the marking's stack is ws.seen.
type flagsWalk struct {
	s    *selector
	pt   []flagPoint // by instruction, and one past the end
	sink []int       // by ALU op: the last op it sinks past, or 0; by compare: cmpGoes if it goes
}

// useALUFlags is the flags pass: see above.
func useALUFlags(s *selector) {
	if !s.desc.HasFlags || !mayDrop(s.code) {
		return
	}
	ws := s.ws
	w := &ws.flags
	n := len(s.code)
	ws.offs = zeroed(ws.offs, n+1)
	*w = flagsWalk{s: s, pt: zeroed(w.pt, n+1), sink: ws.offs}
	for _, p := range s.blockStart {
		w.pt[p].kind = max(w.pt[p].kind, pointStart)
	}
	for i := range s.code {
		in := &s.code[i]
		if !in.Op.Is(target.Branches) {
			continue
		}
		p := s.blockStart[in.Target]
		if in.Op == target.MInvokePush {
			w.pt[p].kind, w.pt[p].entry = pointHandler, noFact
		} else {
			w.pt[p].kind = max(w.pt[p].kind, pointJoin)
		}
	}
	// Walk until no backward branch lowers the fact the walk assumed at
	// its target: facts only fall, from top to known to unknown, so a
	// loop whose test the entry and the body reach with the same fact
	// settles in one walk.
	for w.walk() {
	}
	ws.next = zeroed(ws.next, n+1)
	found := false
	for i := range s.code {
		if w.sink[i] == cmpGoes {
			w.mark(int32(i), s.code[i].Rs1)
			found = true
		}
	}
	if found {
		w.apply()
	}
}

// mayDrop reports whether code has a compare with zero whose consumer
// could read an ALU op's flags: the only compares the pass deletes.
func mayDrop(code []target.MInstr) bool {
	for i := 1; i < len(code); i++ {
		if c := &code[i-1]; c.Op == target.MCmp && c.HasImm && c.Imm == 0 && !c.FP && testsFlags(&code[i], c.Signed) {
			return true
		}
	}
	return false
}

// keepsFlags reports whether op leaves the flags as they are.
func keepsFlags(op target.MOp) bool {
	switch op {
	case target.MMovRR, target.MMovRI, target.MLoad, target.MStore, target.MPush, target.MPop,
		target.MLea, target.MSetCC, target.MJmp, target.MJcc, target.MNop:
		return true
	}
	return false
}

// walk runs the forward dataflow over the code once, recording which
// compares go and how far each ALU op sinks, and reports whether any
// fact a branch brings changed.
func (w *flagsWalk) walk() (changed bool) {
	code := w.s.code
	f := unknown // the function's entry
	for i := range code {
		switch pt := &w.pt[i]; pt.kind {
		case pointHandler:
			f = unknown
		case pointJoin:
			pt.entry = meet(f.flagFact, pt.entry) // what this walk assumed here
			f = flagState{flagFact: pt.entry, src: -1}
		case pointStart:
			f.src, f.pass = -1, false
		}
		in := &code[i]
		if in.Op.Is(target.Branches) && in.Op != target.MInvokePush {
			// A forward branch's fact is met before the walk reaches its
			// target; a backward one asks for another walk only when it
			// lowers what the walk assumed there.
			p := w.s.blockStart[in.Target]
			if m := meet(w.pt[p].entry, f.flagFact); m != w.pt[p].entry {
				w.pt[p].entry, changed = m, changed || p <= i
			}
		}
		f = w.step(i, f)
		if in.Op.Is(target.NoFallthrough) {
			f = flagState{flagFact: flagFact{kind: factTop}, src: -1}
		}
	}
	return changed
}

// step returns the state after instruction i, given f before it.
func (w *flagsWalk) step(i int, f flagState) flagState {
	d, in := w.s.desc, &w.s.code[i]
	switch in.Op {
	case target.MALU:
		// Keep the fact of an op earlier in the straight line when the
		// compare ahead tests its register and it may sink below in.
		sets := d.SetsFlagsFits(in)
		if f.kind == factKnown && f.src >= 0 && f.pass && canSink(&w.s.code[f.src], in) {
			if next := w.nextTest(i + 1); f.reg == next && !(sets && in.Rd == next) {
				w.sink[f.src] = i
				return f
			}
		}
		if !sets {
			return unknown
		}
		logic := (in.Alu == target.AAnd || in.Alu == target.AOr || in.Alu == target.AXor) &&
			(in.Signed || in.Size == 8)
		return flagState{flagFact{kind: factKnown, reg: in.Rd, logic: logic}, int32(i), !in.HasMem}
	case target.MCmp:
		if f.kind == factKnown && f.reg == in.Rs1 && in.HasImm && in.Imm == 0 && !in.FP &&
			i+1 < len(w.s.code) && testsFlags(&w.s.code[i+1], f.logic && in.Signed) {
			w.sink[i] = cmpGoes
			f.src, f.pass = -1, false
			return f
		}
		w.sink[i] = 0
		return unknown
	}
	if keepsFlags(in.Op) {
		if f.kind != factKnown {
			return f
		}
		if in.Def() == f.reg || f.reg == d.SP && (in.Op == target.MPush || in.Op == target.MPop) {
			return unknown
		}
		if f.src >= 0 && f.pass {
			f.pass = canSink(&w.s.code[f.src], in)
		}
		return f
	}
	return unknown
}

// testsFlags reports whether in reads the flags of a compare with zero
// under a condition a flag-setting op's flags answer alike: eq and ne
// always, the ordered ones when ordered is set.
func testsFlags(in *target.MInstr, ordered bool) bool {
	if in.Op != target.MJcc && in.Op != target.MSetCC {
		return false
	}
	return in.Cnd == target.CondEQ || in.Cnd == target.CondNE || ordered
}

// nextTest is the register the first compare with zero reached straight
// on from instruction i tests (through moves, memory ops and jumps), or
// NoReg: which flags the code ahead will want.
func (w *flagsWalk) nextTest(i int) target.Reg {
	code := w.s.code
	for steps := 0; i < len(code) && steps < 16; steps++ {
		in := &code[i]
		switch in.Op {
		case target.MCmp:
			if in.HasImm && in.Imm == 0 && !in.FP {
				return in.Rs1
			}
			return target.NoReg
		case target.MJmp:
			i = w.s.blockStart[in.Target]
		case target.MMovRR, target.MMovRI, target.MLoad, target.MStore, target.MLea, target.MNop:
			i++
		default:
			return target.NoReg
		}
	}
	return target.NoReg
}

// canSink reports whether the ALU op a may move below in: in is an ALU
// op that cannot trap, a move or a lea, and neither reads nor writes
// a's destination nor writes what a reads.
func canSink(a, in *target.MInstr) bool {
	switch in.Op {
	case target.MALU:
		if in.HasMem || in.Alu == target.ADiv || in.Alu == target.ARem {
			return false
		}
	case target.MMovRR, target.MMovRI, target.MLea:
	default:
		return false
	}
	var buf [4]target.Reg
	for _, r := range in.AppendUses(buf[:0]) {
		if r == a.Rd {
			return false
		}
	}
	def := in.Def()
	return def != a.Rd && def != a.Rs1 && (a.HasImm || def != a.Rs2)
}

// mark sets SetsFlags on every op whose flags reach the compare at c,
// which tests r: walking back from c along every path, the first ALU op
// that writes r. An ALU op on the way that writes another register is
// one that op sinks past (step recorded it).
func (w *flagsWalk) mark(c int32, r target.Reg) {
	code, start, seen := w.s.code, w.s.blockStart, w.s.ws.next
	stack := append(w.s.ws.seen[:0], c)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for {
			if w.pt[p].kind == pointHandler {
				break
			}
			if w.pt[p].kind == pointJoin {
				if seen[p] == int(c)+1 {
					break
				}
				seen[p] = int(c) + 1
				for j := range code {
					if in := &code[j]; in.Op == target.MJmp || in.Op == target.MJcc {
						if start[in.Target] == int(p) {
							stack = append(stack, int32(j))
						}
					}
				}
			}
			if p == 0 || code[p-1].Op.Is(target.NoFallthrough) {
				break
			}
			p--
			in := &code[p]
			if in.Op == target.MALU && in.Rd == r {
				in.SetsFlags = w.s.desc.SetsFlagsFits(in)
				break
			}
			if in.Op != target.MALU && in.Def() == r {
				break // an unreachable path: the fact was the other ones'
			}
		}
	}
	w.s.ws.seen = stack
}

// apply moves each marked op below the last op it sinks past, then
// deletes the compares that go and renumbers the block starts.
func (w *flagsWalk) apply() {
	s := w.s
	code := s.code
	for a := range code {
		b := w.sink[a]
		if b <= a || !code[a].SetsFlags {
			continue
		}
		op := code[a]
		copy(code[a:b], code[a+1:b+1])
		code[b] = op
	}
	// Compact, recording each instruction's new position in pos.
	pos := s.ws.next[:len(code)+1] // reused: marking is done
	out := 0
	for i := range code {
		pos[i] = out
		if w.sink[i] != cmpGoes {
			code[out] = code[i]
			out++
		}
	}
	pos[len(code)] = out
	s.code = code[:out]
	for bi, p := range s.blockStart {
		s.blockStart[bi] = pos[p]
	}
}
