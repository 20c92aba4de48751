package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestDominanceMatchesDefinition holds ComputeDominance to the definition
// on random graphs, irreducible ones and unreachable blocks included: a
// dominates b iff every path from the entry to b passes through a, which
// is that b is out of reach once a is taken away. The immediate dominator
// is the strict dominator every other strict dominator dominates.
func TestDominanceMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reach := func(succs [][]int, without int) []bool {
		seen := make([]bool, len(succs))
		if without == 0 {
			return seen
		}
		stack := []int{0}
		seen[0] = true
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range succs[b] {
				if s != without && !seen[s] {
					seen[s] = true
					stack = append(stack, s)
				}
			}
		}
		return seen
	}
	for iter := 0; iter < 500; iter++ {
		n := 1 + rng.Intn(24)
		succs := make([][]int, n)
		preds := make([][]int, n)
		for b := range succs {
			for k := rng.Intn(4); k > 0; k-- {
				s := rng.Intn(n)
				if rng.Intn(3) > 0 && b+1 < n {
					s = b + 1 + rng.Intn(n-b-1) // mostly forward, as code is
				}
				succs[b] = append(succs[b], s)
				preds[s] = append(preds[s], b)
			}
		}
		d := ComputeDominance(succs, preds)
		all := reach(succs, -1)
		for b := 0; b < n; b++ {
			if (d.IDom[b] >= 0) != all[b] {
				t.Fatalf("graph %d %v: block %d reachable %v, idom %d", iter, succs, b, all[b], d.IDom[b])
			}
		}
		for a := 0; a < n; a++ {
			without := reach(succs, a)
			for b := 0; b < n; b++ {
				want := !all[b] || a == b || all[a] && !without[b]
				if got := d.Dominates(a, b); got != want {
					t.Fatalf("graph %d %v: Dominates(%d, %d) = %v, want %v", iter, succs, a, b, got, want)
				}
			}
		}
		for b := 1; b < n; b++ {
			i := d.IDom[b]
			if i < 0 {
				continue
			}
			if i == b || !d.Dominates(i, b) {
				t.Fatalf("graph %d %v: idom(%d) = %d does not strictly dominate it", iter, succs, b, i)
			}
			for a := 0; a < n; a++ {
				if a != b && all[a] && d.Dominates(a, b) && !d.Dominates(a, i) {
					t.Fatalf("graph %d %v: %d strictly dominates %d but not its idom %d", iter, succs, a, b, i)
				}
			}
		}
	}
}

// TestCFGEdges checks the shared-array edge lists against the blocks'
// own successor lists, with a repeated edge kept once per occurrence.
func TestCFGEdges(t *testing.T) {
	m := NewModule("m")
	ctx := m.Types()
	f := m.NewFunction("f", ctx.Function(ctx.Void(), nil, false))
	entry, a, b := f.NewBlock("entry"), f.NewBlock("a"), f.NewBlock("b")
	cond := NewInstruction(OpBr, ctx.Void(), NewBool(ctx.Bool(), true))
	cond.AddBlock(a)
	cond.AddBlock(a)
	entry.Append(cond)
	loop := NewInstruction(OpBr, ctx.Void(), NewBool(ctx.Bool(), false))
	loop.AddBlock(a)
	loop.AddBlock(b)
	a.Append(loop)
	b.Append(NewInstruction(OpRet, ctx.Void()))
	index := map[*BasicBlock]int{entry: 0, a: 1, b: 2}
	succs, preds := CFGEdges(f.Blocks, index)
	want := [][]int{{1, 1}, {1, 2}, nil}
	wantPreds := [][]int{nil, {0, 0, 1}, {1}}
	for i := range want {
		if !slices.Equal(succs[i], want[i]) || !slices.Equal(preds[i], wantPreds[i]) {
			t.Errorf("block %d: succs %v preds %v, want %v and %v", i, succs[i], preds[i], want[i], wantPreds[i])
		}
	}
}
