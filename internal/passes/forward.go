package passes

import (
	"llva/internal/analysis"
	"llva/internal/core"
)

// memEntry is one thing forwarding knows of memory: addr held val when
// the walk left the instruction that loaded or stored it, in a block of
// loop (the block's innermost loop, nil outside every loop).
type memEntry struct {
	addr, val core.Value
	loop      *analysis.Loop
	// noexc marks a value a !noexc load left: where the address is bad it
	// is the fault's 0, so it stands only for another !noexc load.
	noexc bool
	dead  bool
}

// memWalk is LICM's scratch, kept across the functions of one module:
// the forwarding table with its undo log, and the block stamps and
// worklists of the walks over the CFG.
type memWalk struct {
	cfg *analysis.CFG
	dt  *analysis.DomTree
	li  *analysis.LoopInfo
	s   *Stats

	// table holds the entries of the blocks on the dominator-tree walk's
	// path from the entry, innermost block last; killed logs the indices
	// of the entries the path's blocks killed, so that leaving a block
	// revives exactly what it killed.
	table  []memEntry
	killed []int32
	live   int

	buf   []*core.Instruction
	seen  []int32
	stack []int
	// stores holds the pointers a loop stores through (hoisting).
	stores []core.Value

	changed bool
}

// forward is global redundant-load elimination: walking the dominator
// tree, a load takes the value that an earlier load or store of the same
// address left in a dominating block (or earlier in its own), when no
// store that may alias it and no call that may write it lies on any path
// between them, and both blocks have the same innermost loop. The table
// is scoped along the walk, so it holds entries of the blocks on one path
// of the dominator tree only.
func (w *memWalk) forward() bool {
	w.changed = false
	w.table, w.killed, w.live = w.table[:0], w.killed[:0], 0
	w.seen = zeroed32(w.seen, len(w.cfg.Blocks))
	if len(w.cfg.Blocks) > 0 {
		w.walk(0)
	}
	return w.changed
}

func (w *memWalk) walk(b int) {
	mark, killMark := len(w.table), len(w.killed)
	if len(w.cfg.Preds[b]) > 1 && w.live > 0 {
		w.killBetween(b)
	}
	loop := w.li.LoopOf[b]
	w.buf = append(w.buf[:0], w.cfg.Blocks[b].Instructions()...)
	for _, in := range w.buf {
		switch in.Op() {
		case core.OpStore:
			w.clobber(in)
			if in.ExceptionsEnabled {
				// A store that may fault silently may have written nothing.
				w.push(memEntry{addr: in.Operand(1), val: in.Operand(0), loop: loop})
			}
		case core.OpLoad:
			addr := in.Operand(0)
			if e := w.lookup(addr, loop); e != nil && e.val.Type() == in.Type() &&
				(!e.noexc || !in.ExceptionsEnabled) {
				core.ReplaceAllUsesWith(in, e.val)
				in.EraseFromParent()
				w.s.Add("loadelim.forwarded", 1)
				w.changed = true
				continue
			}
			w.push(memEntry{addr: addr, val: in, loop: loop, noexc: !in.ExceptionsEnabled})
		default:
			w.clobber(in)
		}
	}
	for _, ch := range w.dt.Children[b] {
		w.walk(ch)
	}
	for _, i := range w.killed[killMark:] {
		w.table[i].dead = false
		w.live++
	}
	w.killed = w.killed[:killMark]
	for _, e := range w.table[mark:] {
		if !e.dead {
			w.live--
		}
	}
	clear(w.table[mark:])
	w.table = w.table[:mark]
}

// killBetween kills what the blocks on the paths from b's immediate
// dominator to b may write: the blocks a backward walk from b's
// predecessors reaches before the immediate dominator, b itself among
// them when a cycle avoids the dominator.
func (w *memWalk) killBetween(b int) {
	cfg, idom, stamp := w.cfg, w.dt.IDom[b], int32(b+1)
	w.stack = w.stack[:0]
	visit := func(p int) {
		if p != idom && cfg.Reachable[p] && w.seen[p] != stamp {
			w.seen[p] = stamp
			w.stack = append(w.stack, p)
		}
	}
	for _, p := range cfg.Preds[b] {
		visit(p)
	}
	for len(w.stack) > 0 && w.live > 0 {
		x := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		for _, in := range cfg.Blocks[x].Instructions() {
			w.clobber(in)
		}
		for _, p := range cfg.Preds[x] {
			visit(p)
		}
	}
}

// clobber kills the entries in may overwrite: those a store's pointer
// may alias, and those a call or invoke may write.
func (w *memWalk) clobber(in *core.Instruction) {
	var ptr core.Value
	switch in.Op() {
	case core.OpStore:
		ptr = in.Operand(1)
	case core.OpCall, core.OpInvoke:
	default:
		return
	}
	for i := range w.table {
		e := &w.table[i]
		if e.dead || ptr != nil && analysis.Alias(e.addr, ptr) == analysis.NoAlias ||
			ptr == nil && !mayCallWrite(e.addr) {
			continue
		}
		e.dead = true
		w.live--
		w.killed = append(w.killed, int32(i))
	}
}

// mayCallWrite reports whether a call may write addr: anything but a
// provably local, non-escaping alloca.
func mayCallWrite(addr core.Value) bool {
	base, isLocal := analysis.Base(addr)
	return !isLocal || analysis.Escapes(base)
}

func (w *memWalk) push(e memEntry) {
	w.table = append(w.table, e)
	w.live++
}

// lookup returns the newest live entry for addr left in loop, or nil. A
// kill of one entry kills every older one of the same address with it,
// so the search ends at the first dead one.
func (w *memWalk) lookup(addr core.Value, loop *analysis.Loop) *memEntry {
	for i := len(w.table) - 1; i >= 0; i-- {
		if e := &w.table[i]; e.addr == addr {
			if e.dead {
				return nil
			}
			if e.loop == loop {
				return e
			}
		}
	}
	return nil
}

// zeroed32 returns s resized to n and cleared, reusing its array.
func zeroed32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}
