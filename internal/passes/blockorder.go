package passes

import (
	"slices"

	"llva/internal/core"
)

// BlockOrder lays out every defined function's blocks in reverse
// postorder of a depth-first walk from the entry, then rotates the
// top-tested loops it can so that they are tested at the bottom. The walk
// takes a block's successors in reverse terminator order, so its first
// successor (a br's true target, an invoke's normal destination) is
// placed right after it unless it was placed already. Blocks the walk
// does not reach keep their relative order at the end.
//
// Rotation is layout only: a loop's header moves from above its body to
// right after its one latch, so the latch falls through into the test and
// the test's conditional branch jumps back to the body. Each iteration
// then retires one unconditional jump fewer. No block, phi or instruction
// is copied.
//
// This is the optimizer's postcondition: every edge that goes backward
// in layout closes a loop and targets that loop's first block in layout,
// and a rotated loop's latch falls through to its test. BlockOrder then
// renumbers every function's blocks and instructions in body order
// (core.Function.Renumber), so an optimized module's per-block and
// per-instruction tables are exactly as long as it has blocks and
// instructions. The translator
// measures live intervals in block order, so a body InlineCall appended
// at the end of its caller would otherwise stretch every value live
// across it.
func BlockOrder(m *core.Module, s *Stats) bool {
	return forEachDefined(m, func(f *core.Function) bool {
		changed, rotated := orderBlocks(f)
		f.Renumber()
		if !changed {
			return false
		}
		s.Add("blockorder.functions", 1)
		s.Add("blockorder.rotated_loops", rotated)
		return true
	})
}

// place is what orderBlocks knows of a block: whether the walk reached
// it, its position in reverse postorder, the least and greatest
// positions of its reachable predecessors, how many of those are at or
// after it (the loop edges into it) and whether it is a header
// rotateLoops moves. orderBlocks keeps them by block number.
type place struct {
	pos, lo, hi, back int32
	seen, rotate      bool
}

// orderBlocks puts f's blocks in reverse postorder, rotates its loops and
// reports whether any block moved and how many loops it rotated.
func orderBlocks(f *core.Function) (changed bool, rotated int) {
	type frame struct {
		bb   *core.BasicBlock
		next int // successors not yet taken: Successors()[:next]
	}
	n := len(f.Blocks)
	at := make([]place, f.BlockSlots())
	order := make([]*core.BasicBlock, 0, n)
	entry := f.Entry()
	at[entry.Num()].seen = true
	stack := []frame{{entry, len(entry.Successors())}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next == 0 {
			order = append(order, top.bb)
			stack = stack[:len(stack)-1]
			continue
		}
		top.next--
		sc := top.bb.Successors()[top.next]
		if !at[sc.Num()].seen {
			at[sc.Num()].seen = true
			stack = append(stack, frame{sc, len(sc.Successors())})
		}
	}
	slices.Reverse(order)
	rotated = rotateLoops(order, at)
	for _, bb := range f.Blocks {
		if !at[bb.Num()].seen {
			order = append(order, bb)
		}
	}
	for i, bb := range order {
		if f.Blocks[i] != bb {
			f.Blocks[i] = bb
			changed = true
		}
	}
	return changed, rotated
}

// rotateLoops moves the header of every rotatable loop in order, the
// reachable blocks in reverse postorder, to right after the loop's latch,
// and returns how many it moved. Headers are decided innermost first
// (descending position), and a loop whose body begins with a rotated
// inner loop is left alone: rotating it too would make the inner loop's
// body, not the outer test's target, the outer loop's first block. The
// rotated ranges nest or are disjoint, so moving each header in the same
// descending order leaves every outer header and latch where its decision
// saw them.
func rotateLoops(order []*core.BasicBlock, at []place) (rotated int) {
	end := int32(len(order))
	for i, bb := range order {
		at[bb.Num()] = place{pos: int32(i), lo: end, hi: -1, seen: true}
	}
	for i, u := range order {
		for _, v := range u.Successors() {
			p := &at[v.Num()]
			p.lo, p.hi = min(p.lo, int32(i)), max(p.hi, int32(i))
			if int32(i) >= p.pos {
				p.back++
			}
		}
	}
	for h := len(order) - 2; h > 0; h-- {
		if rotatable(order, at, h) {
			at[order[h].Num()].rotate = true
		}
	}
	for h := len(order) - 2; h > 0; h-- {
		if p := at[order[h].Num()]; p.rotate {
			hdr := order[h]
			copy(order[h:p.hi], order[h+1:p.hi+1])
			order[p.hi] = hdr
			rotated++
		}
	}
	return rotated
}

// rotatable reports whether the block at position h of order heads a loop
// rotation pays for: it ends in a two-way br whose one successor, the
// body, is laid out next and whose other, the exit, is outside the loop;
// exactly one loop edge enters it, from a latch that ends in an
// unconditional br; and the blocks from the body to the latch are entered
// only from the header and one another (single entry, contiguous). When
// the body is the br's false side the exit must follow the latch, so that
// the test branches back with its conditional jump once its polarity is
// inverted, and does not jump to the body unconditionally.
func rotatable(order []*core.BasicBlock, at []place, h int) bool {
	hdr := order[h]
	term := hdr.Terminator()
	if term == nil || term.Op() != core.OpBr {
		return false
	}
	succs := hdr.Successors()
	if len(succs) != 2 || succs[0] == succs[1] {
		return false
	}
	body, exit := succs[0], succs[1]
	if order[h+1] != body {
		body, exit = exit, body
		if order[h+1] != body {
			return false
		}
	}
	p := at[hdr.Num()]
	l := int(p.hi)
	if p.back != 1 || l <= h || at[body.Num()].rotate {
		return false
	}
	latch := order[l].Terminator()
	if latch == nil || latch.Op() != core.OpBr || latch.NumBlocks() != 1 {
		return false
	}
	if e := int(at[exit.Num()].pos); e >= h && e <= l || body == succs[1] && e != l+1 {
		return false
	}
	for _, bb := range order[h+1 : l+1] {
		if q := at[bb.Num()]; int(q.lo) < h || int(q.hi) > l {
			return false
		}
	}
	return true
}
