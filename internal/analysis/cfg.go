// Package analysis provides the program analyses that the LLVA
// representation is designed to make easy (paper, Sections 3.1 and 5.1):
// the explicit CFG yields dominator trees, dominance frontiers and loop
// nests directly; the SSA form yields sparse def-use information; and the
// type information supports alias analysis and call-graph construction
// that are "impractical for machine code".
package analysis

import (
	"llva/internal/core"
)

// CFG caches the control-flow graph of one function: block indices,
// successor and predecessor lists.
type CFG struct {
	F      *core.Function
	Blocks []*core.BasicBlock
	Succs  [][]int
	Preds  [][]int
	// Reachable[i] reports whether block i is reachable from entry.
	Reachable []bool

	index core.BlockIndex
}

// NewCFG builds the CFG of f. Succs and Preds share one array.
func NewCFG(f *core.Function) *CFG {
	n := len(f.Blocks)
	c := &CFG{
		F:         f,
		Blocks:    f.Blocks,
		Reachable: make([]bool, n),
		index:     core.NewBlockIndex(f),
	}
	c.Succs, c.Preds = core.CFGEdges(&c.index)
	// DFS reachability from entry.
	var stack []int
	if n > 0 {
		stack = append(stack, 0)
		c.Reachable[0] = true
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range c.Succs[b] {
			if !c.Reachable[s] {
				c.Reachable[s] = true
				stack = append(stack, s)
			}
		}
	}
	return c
}

// Index returns bb's index in Blocks, or -1 when bb is not one of them
// (it was added to the function after the CFG was built).
func (c *CFG) Index(bb *core.BasicBlock) int { return c.index.Of(bb) }

// PostOrder returns the blocks of the CFG in post-order (reachable blocks
// only).
func (c *CFG) PostOrder() []int {
	seen := make([]bool, len(c.Blocks))
	var order []int
	var visit func(int)
	visit = func(b int) {
		seen[b] = true
		for _, s := range c.Succs[b] {
			if !seen[s] {
				visit(s)
			}
		}
		order = append(order, b)
	}
	if len(c.Blocks) > 0 {
		visit(0)
	}
	return order
}

// DomTree is the dominator tree of a function: core.ComputeDominance
// over the CFG, plus each block's children.
type DomTree struct {
	CFG *CFG
	// IDom[i] is the immediate dominator block index of block i
	// (IDom[0] == 0; unreachable blocks have IDom -1).
	IDom []int
	// Children[i] lists the blocks immediately dominated by i, ascending.
	Children [][]int
	dom      *core.Dominance
}

// NewDomTree computes the dominator tree of f.
func NewDomTree(f *core.Function) *DomTree {
	return NewDomTreeCFG(NewCFG(f))
}

// NewDomTreeCFG computes the dominator tree over an existing CFG.
func NewDomTreeCFG(c *CFG) *DomTree {
	d := core.ComputeDominance(c.Succs, c.Preds)
	dt := &DomTree{CFG: c, IDom: d.IDom, dom: d}
	n := len(c.Blocks)
	// Every block but the entry and the unreachable ones is one child:
	// count them, then carve the lists from one array.
	dt.Children = make([][]int, n)
	nKids := make([]int, n)
	total := 0
	for b := 1; b < n; b++ {
		if p := dt.IDom[b]; p >= 0 {
			nKids[p]++
			total++
		}
	}
	slab := make([]int, total)
	for p, k := range nKids {
		dt.Children[p], slab = slab[:0:k], slab[k:]
	}
	for b := 1; b < n; b++ {
		if p := dt.IDom[b]; p >= 0 {
			dt.Children[p] = append(dt.Children[p], b)
		}
	}
	return dt
}

// Dominates reports whether block a dominates block b (by index).
// Unreachable blocks are vacuously dominated.
func (dt *DomTree) Dominates(a, b int) bool { return dt.dom.Dominates(a, b) }

// Frontiers computes the dominance frontier of every block (Cytron et
// al.), the key structure for SSA phi placement.
func (dt *DomTree) Frontiers() [][]int {
	c := dt.CFG
	n := len(c.Blocks)
	df := make([][]int, n)
	// inDF[r] == b+1 once b joined r's frontier: b is the outer loop, so
	// one stamp per block answers "already there?" for the current b.
	inDF := make([]int, n)
	for b := 0; b < n; b++ {
		if !c.Reachable[b] || len(c.Preds[b]) < 2 {
			continue
		}
		for _, p := range c.Preds[b] {
			if !c.Reachable[p] {
				continue
			}
			runner := p
			for runner != dt.IDom[b] {
				if inDF[runner] != b+1 {
					inDF[runner] = b + 1
					df[runner] = append(df[runner], b)
				}
				next := dt.IDom[runner]
				if next == runner {
					break
				}
				runner = next
			}
		}
	}
	return df
}
