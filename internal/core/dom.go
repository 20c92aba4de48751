package core

// Dominance is the dominator tree of a control-flow graph whose blocks are
// numbered 0..n-1, the entry at 0. It is the one dominator implementation:
// the verifier checks the SSA dominance property with it, and
// analysis.DomTree is built on it.
type Dominance struct {
	// IDom[b] is b's immediate dominator: IDom[0] == 0, and -1 for a block
	// the entry does not reach.
	IDom []int
	// pre[b] and post[b] bracket b's subtree in a depth-first numbering of
	// the dominator tree: a dominates b iff a's interval holds b's.
	pre, post []int32
}

// BlockIndex locates blocks in a function's block list by their numbers.
type BlockIndex struct {
	blocks []*BasicBlock
	pos    []int32 // block number -> position in blocks, or -1
}

// NewBlockIndex indexes f.Blocks as they are now.
func NewBlockIndex(f *Function) BlockIndex {
	x := BlockIndex{blocks: f.Blocks, pos: make([]int32, f.BlockSlots())}
	for i := range x.pos {
		x.pos[i] = -1
	}
	for i, bb := range f.Blocks {
		if int(bb.num) < len(x.pos) {
			x.pos[bb.num] = int32(i)
		}
	}
	return x
}

// Of returns bb's position in the indexed blocks, or -1 when bb is not
// one of them (nil, another function's, or added since).
func (x *BlockIndex) Of(bb *BasicBlock) int {
	if bb == nil || int(bb.num) >= len(x.pos) {
		return -1
	}
	if i := x.pos[bb.num]; i >= 0 && x.blocks[i] == bb {
		return int(i)
	}
	return -1
}

// CFGEdges returns the successor and predecessor lists of the indexed
// blocks by position, both carved from one array. An edge to a block the
// index does not hold (nil, or another function's) is left out: the
// verifier reports it.
func CFGEdges(index *BlockIndex) (succs, preds [][]int) {
	blocks := index.blocks
	n := len(blocks)
	lists := make([][]int, 2*n)
	succs, preds = lists[:n:n], lists[n:]
	nIn := make([]int, n)
	edges := 0
	for _, bb := range blocks {
		for _, s := range bb.Successors() {
			if si := index.Of(s); si >= 0 {
				nIn[si]++
				edges++
			}
		}
	}
	slab := make([]int, 0, 2*edges)
	for i, bb := range blocks {
		start := len(slab)
		for _, s := range bb.Successors() {
			if si := index.Of(s); si >= 0 {
				slab = append(slab, si)
			}
		}
		succs[i] = slab[start:len(slab):len(slab)]
	}
	for i, k := range nIn {
		start := len(slab)
		slab = slab[:start+k]
		preds[i] = slab[start : start : start+k]
	}
	for i, ss := range succs {
		for _, si := range ss {
			preds[si] = append(preds[si], i)
		}
	}
	return succs, preds
}

// ComputeDominance builds the dominator tree of the graph given by its
// successor and predecessor lists, with the Cooper–Harvey–Kennedy
// iterative algorithm ("A Simple, Fast Dominance Algorithm"): idoms are
// refined in reverse postorder, which converges in two or three passes on
// the reducible graphs a structured front end emits.
func ComputeDominance(succs, preds [][]int) *Dominance {
	n := len(succs)
	scratch := make([]int, 3*n)
	idom, rpo, post := scratch[:n:n], scratch[n:2*n:2*n], scratch[2*n:2*n]
	nums := make([]int32, 2*n)
	d := &Dominance{IDom: idom, pre: nums[:n:n], post: nums[n:]}
	for i := range idom {
		idom[i], rpo[i] = -1, -1
	}
	if n == 0 {
		return d
	}

	// Postorder of the blocks the entry reaches, by an explicit-stack
	// depth-first search; rpo doubles as the visited mark until numbered.
	type frame struct{ b, next int }
	stack := make([]frame, 1, n)
	rpo[0] = 0
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if ss := succs[top.b]; top.next < len(ss) {
			s := ss[top.next]
			top.next++
			if rpo[s] < 0 {
				rpo[s] = 0
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	for i, b := range post {
		rpo[b] = len(post) - 1 - i
	}

	intersect := func(a, b int) int {
		for a != b {
			for rpo[a] > rpo[b] {
				a = idom[a]
			}
			for rpo[b] > rpo[a] {
				b = idom[b]
			}
		}
		return a
	}
	idom[0] = 0
	for changed := true; changed; {
		changed = false
		for i := len(post) - 2; i >= 0; i-- {
			b := post[i]
			nd := -1
			for _, p := range preds[b] {
				switch {
				case idom[p] < 0: // unreachable, or not yet reached
				case nd < 0:
					nd = p
				default:
					nd = intersect(p, nd)
				}
			}
			if nd >= 0 && idom[b] != nd {
				idom[b] = nd
				changed = true
			}
		}
	}

	// Depth-first intervals over the tree, walked without a stack: child
	// lists are threaded through rpo, which is free again (first child of
	// b at rpo[b], next sibling of c at post[c]), and the way back up is
	// the idom.
	child, sibling := rpo, scratch[2*n:]
	for i := range child {
		child[i], sibling[i] = -1, -1
	}
	for b := n - 1; b > 0; b-- {
		if p := idom[b]; p >= 0 {
			sibling[b], child[p] = child[p], b
		}
	}
	clock := int32(1)
	d.pre[0] = clock
	for b := 0; ; {
		if c := child[b]; c >= 0 {
			b = c
			clock++
			d.pre[b] = clock
			continue
		}
		for {
			clock++
			d.post[b] = clock
			if b == 0 {
				return d
			}
			if s := sibling[b]; s >= 0 {
				b = s
				clock++
				d.pre[b] = clock
				break
			}
			b = idom[b]
		}
	}
}

// Dominates reports whether block a dominates block b. A block the entry
// does not reach is dominated by every block.
func (d *Dominance) Dominates(a, b int) bool {
	if d.IDom[b] < 0 {
		return true
	}
	return d.pre[a] <= d.pre[b] && d.post[b] <= d.post[a]
}
