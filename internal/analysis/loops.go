package analysis

import "llva/internal/core"

// Loop describes one natural loop.
type Loop struct {
	// Header is the loop header block index.
	Header int
	// Blocks are the indices of all blocks in the loop (including the
	// header), ascending: LICM hoists in this order, so it must not
	// depend on map iteration.
	Blocks []int
	// Latches are the blocks with back edges to the header.
	Latches []int
	// Parent is the enclosing loop, or nil.
	Parent *Loop
	// Depth is the nesting depth (outermost = 1).
	Depth int
}

// Contains reports whether the loop contains block b.
func (l *Loop) Contains(b int) bool {
	for _, x := range l.Blocks {
		if x == b {
			return true
		}
	}
	return false
}

// LoopInfo is the loop nest of a function.
type LoopInfo struct {
	CFG   *CFG
	Loops []*Loop
	// LoopOf[b] is the innermost loop containing block b, or nil.
	LoopOf []*Loop
}

// NewLoopInfo finds all natural loops using back edges in the dominator
// tree.
func NewLoopInfo(dt *DomTree) *LoopInfo {
	c := dt.CFG
	n := len(c.Blocks)
	li := &LoopInfo{CFG: c, LoopOf: make([]*Loop, n)}

	// Find back edges: s -> h where h dominates s.
	headerLoop := make([]*Loop, n)
	for s := 0; s < n; s++ {
		if !c.Reachable[s] {
			continue
		}
		for _, h := range c.Succs[s] {
			if !dt.Dominates(h, s) {
				continue
			}
			l := headerLoop[h]
			if l == nil {
				l = &Loop{Header: h}
				headerLoop[h] = l
				li.Loops = append(li.Loops, l)
			}
			l.Latches = append(l.Latches, s)
		}
	}

	// Collect loop bodies: backwards reachability from each latch,
	// stopping at the header. One membership array and one stack serve
	// every loop.
	in := make([]bool, n)
	var stack []int
	for _, l := range li.Loops {
		clear(in)
		in[l.Header] = true
		size := 1
		for _, latch := range l.Latches {
			if !in[latch] {
				in[latch] = true
				size++
				stack = append(stack, latch)
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range c.Preds[b] {
				if c.Reachable[p] && !in[p] {
					in[p] = true
					size++
					stack = append(stack, p)
				}
			}
		}
		l.Blocks = make([]int, 0, size)
		for b, member := range in {
			if member {
				l.Blocks = append(l.Blocks, b)
			}
		}
	}

	// Nesting: a loop is inside another if its header is in the other's
	// body (and they differ). Assign innermost loop per block.
	for _, l := range li.Loops {
		for _, other := range li.Loops {
			if l == other || !other.Contains(l.Header) {
				continue
			}
			// other contains l; pick the smallest such container.
			if l.Parent == nil || len(other.Blocks) < len(l.Parent.Blocks) {
				l.Parent = other
			}
		}
	}
	for _, l := range li.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	for _, l := range li.Loops {
		for _, b := range l.Blocks {
			if li.LoopOf[b] == nil || l.Depth > li.LoopOf[b].Depth {
				li.LoopOf[b] = l
			}
		}
	}
	return li
}

// Depth returns the loop nesting depth of block b (0 = not in a loop).
func (li *LoopInfo) Depth(b int) int {
	if li.LoopOf[b] == nil {
		return 0
	}
	return li.LoopOf[b].Depth
}

// CallGraph maps each function to the functions it may call. Indirect
// calls through function pointers conservatively target every
// address-taken function with a matching signature — the kind of
// call-graph precision the LLVA type system makes possible (Section 5.1).
type CallGraph struct {
	M *core.Module
	// Callees[f] lists the possible callees of f.
	Callees map[*core.Function][]*core.Function
	// Callers is the reverse relation.
	Callers map[*core.Function][]*core.Function
	// AddressTaken reports functions whose address escapes.
	AddressTaken map[*core.Function]bool
}

// NewCallGraph builds the call graph of m.
func NewCallGraph(m *core.Module) *CallGraph {
	cg := &CallGraph{
		M:            m,
		Callees:      make(map[*core.Function][]*core.Function),
		Callers:      make(map[*core.Function][]*core.Function),
		AddressTaken: make(map[*core.Function]bool),
	}
	// Address-taken: any use of a function that is not the callee operand
	// of a call/invoke, plus global initializers.
	for _, f := range m.Functions {
		for _, u := range f.UseList() {
			if (u.User.Op() == core.OpCall || u.User.Op() == core.OpInvoke) && u.Index == 0 {
				continue
			}
			cg.AddressTaken[f] = true
		}
	}
	var scanConst func(c *core.Constant)
	scanConst = func(c *core.Constant) {
		if c == nil {
			return
		}
		if c.CK == core.ConstGlobal {
			if f, ok := c.Ref.(*core.Function); ok {
				cg.AddressTaken[f] = true
			}
		}
		for _, e := range c.Elems {
			scanConst(e)
		}
	}
	for _, g := range m.Globals {
		scanConst(g.Init)
	}

	addEdge := func(from, to *core.Function) {
		cg.Callees[from] = append(cg.Callees[from], to)
		cg.Callers[to] = append(cg.Callers[to], from)
	}
	for _, f := range m.Functions {
		seen := make(map[*core.Function]bool)
		for _, bb := range f.Blocks {
			for _, in := range bb.Instructions() {
				if in.Op() != core.OpCall && in.Op() != core.OpInvoke {
					continue
				}
				if callee := in.CalledFunction(); callee != nil {
					if !seen[callee] {
						seen[callee] = true
						addEdge(f, callee)
					}
					continue
				}
				// Indirect: all address-taken functions of this type.
				sig := in.Callee().Type().Elem()
				for _, cand := range m.Functions {
					if cg.AddressTaken[cand] && cand.Signature() == sig && !seen[cand] {
						seen[cand] = true
						addEdge(f, cand)
					}
				}
			}
		}
	}
	return cg
}
