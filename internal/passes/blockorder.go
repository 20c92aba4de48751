package passes

import (
	"slices"

	"llva/internal/core"
)

// BlockOrder lays out every defined function's blocks in reverse
// postorder of a depth-first walk from the entry. The walk takes a
// block's successors in reverse terminator order, so its first successor
// (a br's true target, an invoke's normal destination) is placed right
// after it unless it was placed already. Blocks the walk does not reach
// keep their relative order at the end.
//
// This is the optimizer's postcondition: every edge u→v where v does not
// dominate u goes forward. The translator measures live intervals in
// block order, so a body InlineCall appended at the end of its caller
// would otherwise stretch every value live across it.
func BlockOrder(m *core.Module, s *Stats) bool {
	return forEachDefined(m, func(f *core.Function) bool {
		if !orderBlocks(f) {
			return false
		}
		s.Add("blockorder.functions", 1)
		return true
	})
}

// orderBlocks puts f's blocks in reverse postorder and reports whether
// any moved.
func orderBlocks(f *core.Function) bool {
	type frame struct {
		bb   *core.BasicBlock
		next int // successors not yet taken: Successors()[:next]
	}
	n := len(f.Blocks)
	seen := make(map[*core.BasicBlock]bool, n)
	post := make([]*core.BasicBlock, 0, n)
	entry := f.Entry()
	seen[entry] = true
	stack := []frame{{entry, len(entry.Successors())}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next == 0 {
			post = append(post, top.bb)
			stack = stack[:len(stack)-1]
			continue
		}
		top.next--
		sc := top.bb.Successors()[top.next]
		if !seen[sc] {
			seen[sc] = true
			stack = append(stack, frame{sc, len(sc.Successors())})
		}
	}
	order := post
	slices.Reverse(order)
	for _, bb := range f.Blocks {
		if !seen[bb] {
			order = append(order, bb)
		}
	}
	changed := false
	for i, bb := range order {
		if f.Blocks[i] != bb {
			f.Blocks[i] = bb
			changed = true
		}
	}
	return changed
}
