package codegen

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"llva/internal/target"
)

// instrDefs returns the register defined by the instruction (or NoReg),
// and instrUses appends the registers it reads.
func instrDef(m *target.MInstr) target.Reg {
	switch m.Op {
	case target.MMovRR, target.MLoad, target.MLea, target.MSetCC,
		target.MPop, target.MCvt, target.MALU:
		return m.Rd
	case target.MMovRI:
		return m.Rd
	}
	return target.NoReg
}

func instrUses(m *target.MInstr, out []target.Reg) []target.Reg {
	add := func(r target.Reg) {
		if r != target.NoReg {
			out = append(out, r)
		}
	}
	switch m.Op {
	case target.MMovRR, target.MCvt, target.MPush, target.MCallInd:
		add(m.Rs1)
	case target.MMovRI:
		if m.HasImm { // vsparc "or" form reads its destination
			add(m.Rd)
		}
	case target.MALU:
		add(m.Rs1)
		if !m.HasImm {
			add(m.Rs2)
		}
		if m.HasMem {
			add(m.Base)
			add(m.Index)
		}
	case target.MCmp, target.MSetCC:
		add(m.Rs1)
		add(m.Rs2)
	case target.MJcc:
		add(m.Rs1)
	case target.MLoad, target.MLea:
		add(m.Base)
		add(m.Index)
	case target.MStore:
		add(m.Rs1)
		add(m.Base)
		add(m.Index)
	}
	return out
}

// slotDisp computes the FP-relative displacement of spill slot i.
func (s *selector) slotDisp(slot int32) int32 {
	return -(s.saveArea + s.allocaBytes + 8*(slot+1))
}

// allocation is the allocator's decision for one function. Virtual
// registers are dense from VRegBase, so both tables are slices indexed by
// the register number less VRegBase; a register never has both a
// physical register and a frame slot.
type allocation struct {
	assigned []target.Reg // physical register, or NoReg
	slotOf   []int32      // frame slot, or -1
	nSlots   int32
	saved    []target.Reg // callee-saved registers handed out, ascending
}

// newAllocation resets ws's allocation for nv virtual registers, none
// of them placed yet.
func newAllocation(ws *workspace, nv int) *allocation {
	a := &ws.alloc
	*a = allocation{
		assigned: zeroed(a.assigned, nv),
		slotOf:   zeroed(a.slotOf, nv),
		saved:    a.saved[:0],
	}
	for i := range a.assigned {
		a.assigned[i] = target.NoReg
		a.slotOf[i] = -1
	}
	return a
}

func (a *allocation) spill(v int) {
	a.slotOf[v] = a.nSlots
	a.nSlots++
}

// slot returns r's frame slot, if it is a spilled virtual register.
func (a *allocation) slot(r target.Reg) (int32, bool) {
	if !r.IsVirtual() {
		return -1, false
	}
	sl := a.slotOf[r-target.VRegBase]
	return sl, sl >= 0
}

// rewritten is the code an allocation rewrites to, with the spill
// traffic that took (telemetry).
type rewritten struct {
	code          []target.MInstr
	blockStart    []int
	loads, stores int
}

// commit makes a and the code it rewrote to the selector's state.
func (s *selector) commit(a *allocation, r rewritten) {
	s.code, s.blockStart = r.code, r.blockStart
	s.nSpillLoads, s.nSpillStores = r.loads, r.stores
	s.spillBytes, s.savedRegs = a.nSlots*8, a.saved
}

// allocSpill is the naive spill-everything allocator: every virtual
// register lives in a stack slot; each instruction loads its operands
// into scratch registers and stores its result back. This reproduces the
// paper's minimal-effort x86 back-end ("significant spill code").
func allocSpill(s *selector) {
	a := newAllocation(s.ws, len(s.vFP))
	slot := func(r target.Reg) {
		if v := int(r) - int(target.VRegBase); r.IsVirtual() && a.slotOf[v] < 0 {
			a.spill(v)
		}
	}
	// Slots in first-appearance order.
	var usesArr [8]target.Reg
	for i := range s.code {
		for _, r := range instrUses(&s.code[i], usesArr[:0]) {
			slot(r)
		}
		slot(instrDef(&s.code[i]))
	}
	s.commit(a, rewriteWithSlots(s, a))
}

// rewriter carries rewriteWithSlots' state. The per-instruction part is
// a handful of fixed arrays: an instruction names at most five registers.
type rewriter struct {
	s   *selector
	a   *allocation
	out rewritten
	// pos indexes the instruction being rewritten.
	pos int

	// busy is the set of physical registers the current instruction
	// already names; they must not be chosen as its scratch registers.
	busy [2]uint64
	// scrV[i] sits in scratch register scrR[i] for this instruction.
	scrV, scrR      [8]target.Reg
	nScr            int
	intNext, fpNext int
}

func (rw *rewriter) setBusy(r target.Reg) { rw.busy[r>>6] |= 1 << (r & 63) }

func (rw *rewriter) isBusy(r target.Reg) bool { return rw.busy[r>>6]&(1<<(r&63)) != 0 }

func (rw *rewriter) bind(v, r target.Reg) {
	rw.scrV[rw.nScr], rw.scrR[rw.nScr] = v, r
	rw.nScr++
}

// scratchOf returns the scratch register v is bound to, or NoReg.
func (rw *rewriter) scratchOf(v target.Reg) target.Reg {
	for i := 0; i < rw.nScr; i++ {
		if rw.scrV[i] == v {
			return rw.scrR[i]
		}
	}
	return target.NoReg
}

func (rw *rewriter) scratchFor(v target.Reg) target.Reg {
	if r := rw.scratchOf(v); r != target.NoReg {
		return r
	}
	d := rw.s.desc
	pool, idx := &d.Scratch, &rw.intNext
	if rw.s.isFPReg(v) {
		pool, idx = &d.FPScratch, &rw.fpNext
	}
	for *idx < len(pool) && rw.isBusy(pool[*idx]) {
		*idx++
	}
	if *idx >= len(pool) {
		panic(fmt.Sprintf("codegen: out of scratch registers for %s", rw.s.code[rw.pos].String()))
	}
	r := pool[*idx]
	*idx++
	rw.bind(v, r)
	return r
}

func (rw *rewriter) mapReg(v target.Reg) target.Reg {
	if !v.IsVirtual() {
		return v
	}
	if p := rw.a.assigned[v-target.VRegBase]; p != target.NoReg {
		return p
	}
	return rw.scratchFor(v)
}

// emitFrame emits one spill-slot access; slots always hold the full
// canonical 64-bit value.
func (rw *rewriter) emitFrame(op target.MOp, reg target.Reg, disp int32, fp bool) {
	if op == target.MLoad {
		rw.out.loads++
	} else {
		rw.out.stores++
	}
	rw.out.code = frameInstrs(rw.out.code, rw.s.desc, op, reg, disp, fp)
}

// rewriteWithSlots rewrites the code under allocation a into the
// workspace's second code buffer: spilled virtual registers load from /
// store to their frame slot through scratch registers; assigned ones map
// to their physical register. The selector's own code is left as it
// was: commit makes the rewritten code the selector's.
func rewriteWithSlots(s *selector, a *allocation) rewritten {
	d, ws := s.desc, s.ws
	rw := rewriter{s: s, a: a}
	rw.out = rewritten{
		code:       emptied(ws.code2, len(s.code)+len(s.code)/4+8),
		blockStart: zeroed(ws.start2, len(s.blockStart)),
	}
	bi := 0
	var usesArr, loaded [8]target.Reg

	// One-instruction forwarding window: the most recent definition stays
	// valid in its scratch register until a block boundary or a clobber,
	// so chained operations skip one reload ("the last value is still in
	// AX" — the extent of cleverness a naive translator affords).
	lastV, lastR := target.NoReg, target.NoReg

	for i := range s.code {
		atBoundary := false
		for bi < len(s.blockStart) && s.blockStart[bi] == i {
			rw.out.blockStart[bi] = len(rw.out.code)
			bi++
			atBoundary = true
		}
		if atBoundary {
			lastV, lastR = target.NoReg, target.NoReg
		}
		in := s.code[i] // copy
		rw.pos = i

		// Post-allocation peepholes over values still in slots:
		// 1. A register-register move between two spilled values is a
		//    load + store, not load + mov + store.
		if in.Op == target.MMovRR {
			dSl, dSp := a.slot(in.Rd)
			sSl, sSp := a.slot(in.Rs1)
			if dSp && sSp {
				sc := d.Scratch[0]
				if s.isFPReg(in.Rs1) {
					sc = d.FPScratch[0]
				}
				rw.emitFrame(target.MLoad, sc, s.slotDisp(sSl), s.isFPReg(in.Rs1))
				rw.emitFrame(target.MStore, sc, s.slotDisp(dSl), s.isFPReg(in.Rd))
				// The copy clobbered a scratch register; the moved value
				// now lives there, so it becomes the forwarding window.
				lastV, lastR = in.Rd, sc
				continue
			}
		}
		// 2. A spilled right ALU operand folds into a memory operand
		//    (vx86 "add reg, [slot]"), except float32 whose in-register
		//    canonical form differs from its memory image.
		if in.Op == target.MALU && d.MemOperands && !in.HasImm && !in.HasMem &&
			!(in.FP && in.Size == 4) {
			if sl, sp := a.slot(in.Rs2); sp {
				in.HasMem = true
				in.Base = d.FP
				in.Index = target.NoReg
				in.Disp = s.slotDisp(sl)
				in.Rs2 = target.NoReg
				rw.out.loads++
			}
		}

		rw.busy = [2]uint64{}
		rw.nScr, rw.intNext, rw.fpNext = 0, 0, 0
		uses := instrUses(&in, usesArr[:0])
		for _, r := range uses {
			if !r.IsVirtual() {
				rw.setBusy(r)
			}
		}
		if dd := instrDef(&in); dd != target.NoReg && !dd.IsVirtual() {
			rw.setBusy(dd)
		}

		// Load spilled sources (the forwarded value needs no reload).
		nLoaded := 0
		if lastV != target.NoReg && slices.Contains(uses, lastV) {
			rw.bind(lastV, lastR)
			rw.setBusy(lastR)
			loaded[0], nLoaded = lastV, 1
		}
		for _, r := range uses {
			if slices.Contains(loaded[:nLoaded], r) {
				continue
			}
			if sl, spilled := a.slot(r); spilled {
				loaded[nLoaded] = r
				nLoaded++
				rw.emitFrame(target.MLoad, rw.mapReg(r), s.slotDisp(sl), s.isFPReg(r))
			}
		}
		def := instrDef(&in)
		defSlot, defSpilled := a.slot(def)
		in.Rd = rw.mapReg(in.Rd)
		in.Rs1 = rw.mapReg(in.Rs1)
		in.Rs2 = rw.mapReg(in.Rs2)
		in.Base = rw.mapReg(in.Base)
		in.Index = rw.mapReg(in.Index)
		// Coalescing: a register-register move whose source and
		// destination landed in the same physical register is a no-op
		// (common for phi carriers and their phis with disjoint ranges).
		if in.Op == target.MMovRR && in.Rd == in.Rs1 && !defSpilled {
			continue
		}
		rw.out.code = append(rw.out.code, in)
		if defSpilled {
			rw.emitFrame(target.MStore, rw.mapReg(def), s.slotDisp(defSlot), s.isFPReg(def))
		}

		// Update the forwarding window.
		switch in.Op {
		case target.MCall, target.MCallInd, target.MCallExt, target.MRet,
			target.MUnwind, target.MInvokePush:
			// calls and unwinds clobber scratch registers
			lastV, lastR = target.NoReg, target.NoReg
		default:
			// a reused scratch register invalidates the old forwarding
			if lastR != target.NoReg {
				for k := 0; k < rw.nScr; k++ {
					if rw.scrR[k] == lastR && rw.scrV[k] != lastV {
						lastV, lastR = target.NoReg, target.NoReg
						break
					}
				}
			}
			if defSpilled {
				lastV, lastR = def, rw.scratchOf(def)
			} else if def == lastR && def != target.NoReg {
				// a physical definition may have clobbered the window
				lastV, lastR = target.NoReg, target.NoReg
			}
		}
	}
	for ; bi < len(s.blockStart); bi++ {
		rw.out.blockStart[bi] = len(rw.out.code)
	}
	ws.code2, ws.start2 = rw.out.code, rw.out.blockStart
	return rw.out
}

// frameInstrs appends one 64-bit FP-relative frame-slot access,
// synthesizing the address through the assembler temporary when the
// displacement exceeds the target's range (Desc.DispFits). All register
// save/restore, spill and overflow-argument traffic in the back-end
// funnels through here.
func frameInstrs(list []target.MInstr, d *target.Desc, op target.MOp,
	reg target.Reg, disp int32, fp bool) []target.MInstr {
	base := d.FP
	if !d.DispFits(int64(disp)) {
		at := target.Reg(31)
		list = appendImm(list, at, int64(disp), d)
		list = append(list, target.MInstr{Op: target.MALU, Alu: target.AAdd,
			Rd: at, Rs1: base, Rs2: at, Size: 8})
		base, disp = at, 0
	}
	mi := target.MInstr{Op: op, Base: base, Index: target.NoReg, Disp: disp,
		Size: 8, FP: fp}
	if op == target.MLoad {
		mi.Rd = reg
	} else {
		mi.Rs1 = reg
	}
	return append(list, mi)
}

// appendImm appends the movi sequence for an immediate (selector.synthImm
// delegates here; the rewriter and frame lowering call it directly).
func appendImm(out []target.MInstr, reg target.Reg, v int64, d *target.Desc) []target.MInstr {
	if d.WordSize != 4 {
		return append(out, target.MInstr{Op: target.MMovRI, Rd: reg, Imm: v})
	}
	if v >= -32768 && v <= 32767 {
		return append(out, target.MInstr{Op: target.MMovRI, Rd: reg, Imm: v & 0xffff})
	}
	top := 3
	for top > 0 && uint16(uint64(v)>>(16*top)) == 0 {
		top--
	}
	first := top - 1
	if uint16(uint64(v)>>(16*top))&0x8000 != 0 && top < 3 && uint64(v)>>(16*(top+1)) == 0 {
		out = append(out, target.MInstr{Op: target.MMovRI, Rd: reg, Imm: 0, Scale: uint8(top + 1)})
		first = top
	} else {
		out = append(out, target.MInstr{Op: target.MMovRI, Rd: reg,
			Imm: int64(uint16(uint64(v) >> (16 * top))), Scale: uint8(top)})
	}
	for c := first; c >= 0; c-- {
		chunk := int64(uint16(uint64(v) >> (16 * c)))
		if chunk == 0 {
			continue
		}
		out = append(out, target.MInstr{Op: target.MMovRI, Rd: reg, Imm: chunk,
			Scale: uint8(c), HasImm: true})
	}
	return out
}

// interval is a live range for linear scan: conservative [start, end]
// positions of one virtual register.
type interval struct {
	start, end int // start < 0: the register never appears
	fp         bool
	cross      bool // live across a call: needs a callee-saved register
	// weight is the heat-weighted use count, accumulated only when the
	// selector carries per-block profile heat (tier 2): spilling this
	// value costs ~2 cycles per weighted use, so eviction prefers the
	// cheapest victim instead of the furthest-ending one.
	weight uint64
}

// liveness is what the linear scan needs to know about a function, and
// all of it is independent of the eviction policy. Everything is indexed
// by virtual register number less VRegBase.
type liveness struct {
	ivals []interval
	// order lists the registers that appear as start<<32 | index, sorted:
	// by (start, register), a total order, so the scan does not depend on
	// how the list was produced.
	order []uint64
	// forceSpill is the bitset of registers live into an unwind handler.
	forceSpill []uint64
}

func setBit(row []uint64, v int)      { row[v>>6] |= 1 << (v & 63) }
func clearBit(row []uint64, v int)    { row[v>>6] &^= 1 << (v & 63) }
func hasBit(row []uint64, v int) bool { return row[v>>6]&(1<<(v&63)) != 0 }

// Row kinds of a liveRows slab.
const (
	useRow = iota
	defRow
	inRow
	outRow
	rowKinds
)

// liveRows is block-level liveness over virtual registers: per block a
// use, def, live-in and live-out bitset row, all in one slab. The
// coalescer decides merges on the live-in/live-out rows and renames them
// with the code, so the solution is found once per lowering.
type liveRows struct {
	slab  []uint64
	words int // per row
	nb    int // blocks; rows also exist for the epilogue label, which branches target
	// handlers lists the unwind-handler block of every invoke.
	handlers []int32
}

func (lr *liveRows) row(kind, b int) []uint64 {
	o := (kind*(lr.nb+1) + b) * lr.words
	return lr.slab[o : o+lr.words]
}

// solveLiveness computes per-block use/def and solves live-in/live-out
// word-wise to the fixpoint — the least one, whatever order it is
// reached in. The solution is the workspace's.
func solveLiveness(s *selector) *liveRows {
	ws := s.ws
	nb := len(s.blockStart) - 1 // last entry is the (empty) epilogue label
	words := (len(s.vFP) + 63) / 64
	// The slab's last row is the force-spill set intervals fills.
	lr := &ws.rows
	*lr = liveRows{
		slab:     zeroed(lr.slab, (rowKinds*(nb+1)+1)*words),
		words:    words,
		nb:       nb,
		handlers: lr.handlers[:0],
	}

	// Per-block use/def, successor lists (branch targets, in code order)
	// and invoke handlers, in one walk.
	succOff := zeroed(ws.succOff, nb+1)
	succ := emptied(ws.succ, 2*nb)
	var ubArr [8]target.Reg
	for b := 0; b < nb; b++ {
		use, def := lr.row(useRow, b), lr.row(defRow, b)
		succOff[b] = int32(len(succ))
		for i := s.blockStart[b]; i < s.blockStart[b+1]; i++ {
			m := &s.code[i]
			switch m.Op {
			case target.MJmp, target.MJcc:
				succ = append(succ, m.Target)
			case target.MInvokePush:
				succ = append(succ, m.Target)
				lr.handlers = append(lr.handlers, m.Target)
			}
			for _, r := range instrUses(m, ubArr[:0]) {
				if v := int(r) - int(target.VRegBase); r.IsVirtual() && !hasBit(def, v) {
					setBit(use, v)
				}
			}
			if d := instrDef(m); d.IsVirtual() {
				setBit(def, int(d-target.VRegBase))
			}
		}
	}
	succOff[nb] = int32(len(succ))
	ws.succOff, ws.succ = succOff, succ

	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			in, out := lr.row(inRow, b), lr.row(outRow, b)
			use, def := lr.row(useRow, b), lr.row(defRow, b)
			for _, sc := range succ[succOff[b]:succOff[b+1]] {
				if int(sc) > nb {
					continue
				}
				for w, x := range lr.row(inRow, int(sc)) {
					if x&^out[w] != 0 {
						out[w] |= x
						changed = true
					}
				}
			}
			for w := range in {
				if x := use[w] | out[w]&^def[w]; x&^in[w] != 0 {
					in[w] |= x
					changed = true
				}
			}
		}
	}
	return lr
}

// intervals builds the linear scan's input from the block-level
// solution: one conservative interval per register, the scan order, the
// call crossings and the force-spill set. They are the workspace's.
func (lr *liveRows) intervals(s *selector) *liveness {
	nb, nv, ws := lr.nb, len(s.vFP), s.ws
	lv := &ws.live
	*lv = liveness{
		ivals:      zeroed(lv.ivals, nv),
		order:      emptied(lv.order, nv),
		forceSpill: lr.slab[len(lr.slab)-lr.words:],
	}

	// Intervals: conservative [min, max] positions.
	for i := range lv.ivals {
		lv.ivals[i].start = -1
	}
	touch := func(v, pos int) {
		iv := &lv.ivals[v]
		switch {
		case iv.start < 0:
			iv.start, iv.end, iv.fp = pos, pos, s.vFP[v]
		case pos < iv.start:
			iv.start = pos
		case pos > iv.end:
			iv.end = pos
		}
	}
	touchRow := func(r []uint64, pos int) {
		for w, x := range r {
			for ; x != 0; x &= x - 1 {
				touch(w<<6+bits.TrailingZeros64(x), pos)
			}
		}
	}
	var heat uint64 // of the block being walked
	touchWeigh := func(r target.Reg, pos int) {
		if !r.IsVirtual() {
			return
		}
		v := int(r - target.VRegBase)
		touch(v, pos)
		if s.blockHeat != nil {
			lv.ivals[v].weight += heat + 1
		}
	}
	callPos := ws.callPos[:0]
	var ubArr [8]target.Reg
	for b := 0; b < nb; b++ {
		first, end := s.blockStart[b], s.blockStart[b+1]
		touchRow(lr.row(inRow, b), first)
		touchRow(lr.row(outRow, b), end-1)
		heat = 0
		if b < len(s.blockHeat) {
			heat = s.blockHeat[b]
		}
		for i := first; i < end; i++ {
			m := &s.code[i]
			switch m.Op {
			case target.MCall, target.MCallInd, target.MCallExt:
				callPos = append(callPos, i)
			}
			for _, r := range instrUses(m, ubArr[:0]) {
				touchWeigh(r, i)
			}
			touchWeigh(instrDef(m), i)
		}
	}

	// Calls clobber caller-saved registers. Every block ends with a
	// terminator — never a call — so a value live out of a block whose
	// last call sits at position p is always touched at a position > p,
	// and the strict start <= p < end test below is sound even for
	// intervals wrapping a loop back edge.
	ws.callPos = callPos
	for v := range lv.ivals {
		iv := &lv.ivals[v]
		if iv.start < 0 {
			continue
		}
		j := sort.SearchInts(callPos, iv.start)
		iv.cross = j < len(callPos) && callPos[j] < iv.end
		lv.order = append(lv.order, uint64(iv.start)<<32|uint64(v))
	}
	slices.Sort(lv.order)
	for _, h := range lr.handlers {
		if int(h) <= nb {
			for w, x := range lr.row(inRow, int(h)) {
				lv.forceSpill[w] |= x
			}
		}
	}
	return lv
}

// linearScan is the global linear-scan register allocator, shared by
// both back-ends. It walks the live intervals in start order over two
// pools per register class from target.Desc: caller-saved registers for
// intervals containing no call, callee-saved registers (saved by the
// prologue) for intervals that cross one. When every pool is exhausted
// it spills second-chance style: a victim interval loses its register
// to the current one and moves to a frame slot — and a non-crossing
// victim gets a second chance to relocate into a caller-saved register
// that has been free since before the victim itself began. With
// byWeight false the victim is the interval ending furthest (classic
// linear scan); with it true (tier 2, per-block heat) it is the interval
// with the lowest heat-weighted use count, so hot-loop values keep
// their registers.
//
// Two invoke-specific rules keep unwinding — which restores only SP and
// FP — correct:
//
//  1. every value live into an unwind handler block is force-spilled to
//     a frame slot for its whole interval: even a callee-saved register
//     copy is unreliable on the unwind path, because the unwound
//     callees' restoring epilogues never run;
//  2. values live across the invoke only on the normal path follow the
//     ordinary call-crossing rule — on a normal return the callee's
//     epilogue has restored every callee-saved register.
//
// The result depends on nothing but lv and the pools' order: intervals
// arrive in a total order, the active list and the pools are sequences,
// and everything else is indexed by register number.
func linearScan(s *selector, lv *liveness, byWeight bool) *allocation {
	d, ws := s.desc, s.ws
	a := newAllocation(ws, len(lv.ivals))

	// The four pools share one backing array; each is capped at its own
	// size, which a release cannot exceed: it returns a register to the
	// pool it came from.
	backing := emptied(ws.backing,
		len(d.Allocatable)+len(d.FPAllocatable)+len(d.CallerSaved)+len(d.FPCallerSaved))
	ws.backing = backing
	pool := func(regs []target.Reg) []target.Reg {
		o := len(backing)
		backing = append(backing, regs...)
		return backing[o:len(backing):len(backing)]
	}
	calleeInt, calleeFP := pool(d.Allocatable), pool(d.FPAllocatable)
	callerInt, callerFP := pool(d.CallerSaved), pool(d.FPCallerSaved)

	// Physical registers number below 128 (target.Reg).
	var callerSet, used [128]bool
	for _, r := range callerInt {
		callerSet[r] = true
	}
	for _, r := range callerFP {
		callerSet[r] = true
	}
	// freeAt records, per register, the end position of its last owner
	// (zero: never handed out). A register in a pool is only guaranteed
	// free after that point: safe for the interval being scanned (which
	// starts later), but not automatically for an evicted victim that
	// started earlier.
	var freeAt [128]int

	active := emptied(ws.active, cap(backing))
	ws.active = active

	poolOf := func(r target.Reg) *[]target.Reg {
		switch {
		case callerSet[r] && r.IsFP():
			return &callerFP
		case callerSet[r]:
			return &callerInt
		case r.IsFP():
			return &calleeFP
		}
		return &calleeInt
	}
	expire := func(pos int) {
		keep := active[:0]
		for _, e := range active {
			if end := lv.ivals[e.v].end; end < pos {
				if end > freeAt[e.reg] {
					freeAt[e.reg] = end
				}
				p := poolOf(e.reg)
				*p = append(*p, e.reg)
			} else {
				keep = append(keep, e)
			}
		}
		active = keep
	}
	// takeAt removes and returns the pool's i'th register, keeping the
	// order of the rest.
	takeAt := func(p *[]target.Reg, i int) target.Reg {
		r := (*p)[i]
		*p = append((*p)[:i], (*p)[i+1:]...)
		return r
	}
	take := func(p *[]target.Reg) target.Reg {
		if len(*p) == 0 {
			return target.NoReg
		}
		return takeAt(p, 0)
	}
	// takeFreeBefore takes the first pool register whose last owner ended
	// before pos — the legality condition for relocating an already-live
	// victim.
	takeFreeBefore := func(p *[]target.Reg, pos int) target.Reg {
		for i, r := range *p {
			if e := freeAt[r]; e > 0 && e >= pos {
				continue
			}
			return takeAt(p, i)
		}
		return target.NoReg
	}

	for _, key := range lv.order {
		v := int32(key)
		iv := &lv.ivals[v]
		if hasBit(lv.forceSpill, int(v)) {
			a.spill(int(v))
			continue
		}
		expire(iv.start)
		// Pool preference: non-crossing intervals take caller-saved
		// registers first (calls clobber them anyway, so they are free);
		// crossing intervals may only use callee-saved ones.
		caller, callee := &callerInt, &calleeInt
		if iv.fp {
			caller, callee = &callerFP, &calleeFP
		}
		reg := target.NoReg
		if !iv.cross {
			reg = take(caller)
		}
		if reg == target.NoReg {
			reg = take(callee)
		}
		if reg != target.NoReg {
			a.assigned[v] = reg
			used[reg] = true
			active = append(active, activeEntry{v, reg})
			continue
		}
		// Pools exhausted: an active interval of the same class yields its
		// register, provided that register is legal for the current
		// interval. The classic victim is the interval ending furthest;
		// the weighted one is the cheapest to spill — lowest heat-weighted
		// use count — and only if it is both cheaper than the current
		// interval and ends later, so hot-loop values keep their registers.
		// (The ends-later filter is a measured heuristic, not a soundness
		// condition: evicting an interval shorter than the current one
		// trades a long register occupancy for little gain.)
		victim := -1
		for ai, e := range active {
			if e.reg.IsFP() != iv.fp {
				continue
			}
			if iv.cross && callerSet[e.reg] {
				continue
			}
			c := &lv.ivals[e.v]
			if c.end <= iv.end {
				continue
			}
			if !byWeight {
				if victim == -1 || c.end > lv.ivals[active[victim].v].end {
					victim = ai
				}
				continue
			}
			if c.weight >= iv.weight {
				continue
			}
			if victim == -1 {
				victim = ai
				continue
			}
			if best := &lv.ivals[active[victim].v]; c.weight < best.weight ||
				(c.weight == best.weight && c.end > best.end) {
				victim = ai
			}
		}
		if victim < 0 {
			a.spill(int(v))
			continue
		}
		e := active[victim]
		ev := &lv.ivals[e.v]
		a.assigned[v] = e.reg
		active[victim] = activeEntry{v, e.reg}
		// Second chance: a non-crossing victim may relocate into a
		// caller-saved register instead of spilling — but only one whose
		// previous owner died before the victim began. The pool invariant
		// (owners dead before the current position) is not enough here:
		// the victim has been live since ev.start < iv.start, and an
		// owner that died in between would overlap it.
		if !ev.cross {
			if reloc := takeFreeBefore(caller, ev.start); reloc != target.NoReg {
				a.assigned[e.v] = reloc
				used[reloc] = true
				active = append(active, activeEntry{e.v, reloc})
				continue
			}
		}
		a.assigned[e.v] = target.NoReg
		a.spill(int(e.v))
	}

	// The prologue saves only the callee-saved registers actually used.
	for r := range used {
		if used[r] && !callerSet[r] {
			a.saved = append(a.saved, target.Reg(r))
		}
	}
	return a
}

// activeEntry is an interval linearScan has given a register.
type activeEntry struct {
	v   int32
	reg target.Reg
}

// allocLinear allocates s.code, whose block liveness is lr, with the
// classic furthest-end eviction rule, or, when the selector carries
// profile heat (tier 2), by heat: the victim is the cheapest value to
// spill.
func allocLinear(s *selector, lr *liveRows) {
	a := linearScan(s, lr.intervals(s), s.blockHeat != nil)
	s.commit(a, rewriteWithSlots(s, a))
}
