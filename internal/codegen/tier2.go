package codegen

import (
	"slices"
	"sort"
	"sync"
	"time"

	"llva/internal/core"
	"llva/internal/passes"
	"llva/internal/prof"
	"llva/internal/target"
)

// Tier-2 profile-guided translation (paper, Section 4.2): the persisted
// guest profile's exact block entry counts drive superblock formation —
// extended traces along hot taken-branch paths, with side-entry blocks
// tail-duplicated so the trace stays private — plus translate-time
// inlining of small hot callees and post-layout branch peepholes. The
// hot path then falls through in layout order, which the simulated
// processor rewards directly: a taken branch costs one extra cycle.
//
// Tier 2 never changes observable behavior; the N-way differential
// oracle (regalloc_diff_test.go) holds interpreter, tier-1 and tier-2
// output to the same result and program output on both targets.

const (
	// tier2InlineThreshold is the max callee size (LLVA instructions) for
	// profile-driven inlining. Deliberately above passes.InlineThreshold
	// (40): -O2 already folded the tiny callees, so tier 2 must reach
	// further to find work — but only on blocks the profile proved hot.
	tier2InlineThreshold = 96

	// tier2GrowthBudget caps total instructions added by inlining into
	// one function, keeping clone+translate time bounded.
	tier2GrowthBudget = 256

	// tier2MaxDupInstrs caps the size of a block worth tail-duplicating.
	tier2MaxDupInstrs = 12
)

// tier2Mu serializes all tier-2 IR transformation. Cloning, inlining and
// tail duplication mutate use lists on *shared* module-level values
// (functions, globals), which tier-1 translation never touches — so
// tier-1 translations stay fully concurrent, with each other and with
// tier 2, while tier-2 translations run one function at a time.
var tier2Mu sync.Mutex

// WithTier2 derives a tier-2 translator guided by art, sharing the
// module, target and telemetry handles of t. The receiver is unchanged:
// the execution manager translates a module's hot functions on the
// derived translator and the rest on t, concurrently. Call after
// SetTelemetry so the derived translator inherits the counter handles.
func (t *Translator) WithTier2(art *prof.Artifact) *Translator {
	nt := *t
	nt.tier = 2
	nt.art = art
	return &nt
}

// Tier2Takes reports whether t translates the function named name at
// tier 2: exactly when t is a tier-2 translator and its profile counted
// entries of name. Every other function t translates at tier 1.
func (t *Translator) Tier2Takes(name string) bool {
	return t.tier >= 2 && len(t.art.BlockCounts(name)) > 0
}

// tryTier2 translates f through the superblock pipeline: clone the body,
// weigh its blocks with the profile's entry counts, inline hot callees,
// form superblocks, verify, and lower the clone — the one lowering a hot
// function takes. It reports ok=false — translate at tier 1 — when
// Tier2Takes does not take f. When a transformed body fails verification,
// f is lowered at tier 1 instead (ok=true). tier2_funcs, superblocks and
// tail_dup_instrs count what shipped.
func (t *Translator) tryTier2(ws *workspace, f *core.Function) (*NativeFunc, bool) {
	if !t.Tier2Takes(f.Name()) {
		return nil, false
	}
	tier2Mu.Lock()
	defer tier2Mu.Unlock()

	start := time.Now()
	clone := core.CloneFunctionBody(f)
	defer core.DiscardFunctionBody(clone)
	observeSince(t.tier2CloneNS, start)

	b := t.transformTier2(f, clone)
	if b.err != nil {
		// A transform produced invalid IR; tier-1 output is always safe.
		return t.lower(ws, f, nil, nil), true
	}
	start = time.Now()
	nf := t.lower(ws, clone, b.perm, b.hm)
	observeSince(t.tier2LowerNS, start)
	nf.NumLLVA = f.NumInstructions()
	if t.tier2Funcs != nil {
		t.tier2Funcs.Inc()
		t.superblocks.Add(uint64(b.nSuper))
		t.tailDupInstrs.Add(uint64(b.nDup))
	}
	return nf, true
}

// transformed is what tier 2's IR stage made of a hot function's clone:
// the clone's heat and trace-order permutation, what superblock
// formation counted, and the transformed clone's verification.
type transformed struct {
	perm         []int
	hm           heat
	nSuper, nDup int
	err          error
}

// transformTier2 is tier 2's IR stage between cloning f and lowering the
// clone: heat, hot inlining, superblock formation and verification. The
// caller holds tier2Mu and discards the clone.
func (t *Translator) transformTier2(f, clone *core.Function) (b transformed) {
	// A block's heat is how often it was entered: the machine counted the
	// entries of f's tier-1 code by LLVA block, and the clone keeps f's
	// block order. Heat is indexed by block number, and the clone's
	// numbers are its block indices.
	b.hm = make(heat, len(clone.Blocks))
	for _, c := range t.art.BlockCounts(f.Name()) {
		if c.Block >= 0 && c.Block < len(clone.Blocks) {
			b.hm[c.Block] += c.Count
		}
	}

	// A module that can replace its functions at run time (Section 3.4)
	// keeps every call a call: an inlined copy of a callee would go on
	// running after llva.smc.replace replaced the callee.
	if t.m.Function("llva.smc.replace") == nil {
		b.hm = t.inlineHot(clone, b.hm)
	}
	b.perm, b.nSuper, b.nDup = formSuperblocks(clone, &b.hm)

	start := time.Now()
	b.err = core.VerifyFunction(clone)
	observeSince(t.tier2VerifyNS, start)
	return b
}

// heat is the entry count of each block of a function being transformed,
// by block number. Blocks the transforms add are numbered past its end
// until they are given heat.
type heat []uint64

// of returns bb's heat.
func (h heat) of(bb *core.BasicBlock) uint64 {
	if n := bb.Num(); n < len(h) {
		return h[n]
	}
	return 0
}

// set gives bb heat v, growing h as far as bb's number.
func (h *heat) set(bb *core.BasicBlock, v uint64) {
	if n := bb.Num(); n >= len(*h) {
		*h = append(*h, make(heat, n+1-len(*h))...)
	}
	(*h)[bb.Num()] = v
}

// inlineHot repeatedly inlines the hottest eligible call site in clone:
// direct calls in profiled-hot blocks whose callee is small, defined,
// non-recursive and exception-free. Blocks created by each inline (the
// split continuation plus the cloned callee body) inherit the call
// site's heat, so superblock formation extends traces through them. It
// returns the heat grown to the new blocks.
func (t *Translator) inlineHot(clone *core.Function, hm heat) heat {
	budget := tier2GrowthBudget
	for {
		var call *core.Instruction
		var hottest uint64
		for _, bb := range clone.Blocks {
			h := hm.of(bb)
			if h == 0 || h < hottest {
				continue
			}
			for _, in := range bb.Instructions() {
				if in.Op() != core.OpCall {
					continue
				}
				callee := in.CalledFunction()
				if callee == nil || callee.IsDeclaration() || callee.IsIntrinsic() ||
					callee.Name() == clone.Name() || !passes.CanInline(callee) ||
					hasCycle(callee) {
					continue
				}
				if n := callee.NumInstructions(); n > tier2InlineThreshold || n > budget {
					continue
				}
				if h > hottest || call == nil {
					hottest, call = h, in
				}
			}
		}
		if call == nil {
			return hm
		}
		site := call.Parent()
		n0 := len(clone.Blocks)
		budget -= call.CalledFunction().NumInstructions()
		passes.InlineCall(clone, call)
		for _, nb := range clone.Blocks[n0:] {
			hm.set(nb, hm.of(site))
		}
	}
}

// hasCycle reports whether f's CFG contains a loop. Tier-2 inlining
// refuses such callees: the inlined copy's blocks inherit the call
// site's heat, which is exact for loop-free bodies (each block runs at
// most once per call) but understates a loop body arbitrarily — and
// everything downstream of the lie (spill weights, the eviction policy,
// superblock formation) would optimize the wrong blocks.
func hasCycle(f *core.Function) bool {
	const (
		gray  = 1
		black = 2
	)
	color := make([]uint8, f.BlockSlots())
	var visit func(bb *core.BasicBlock) bool
	visit = func(bb *core.BasicBlock) bool {
		color[bb.Num()] = gray
		for _, s := range bb.Successors() {
			switch color[s.Num()] {
			case gray:
				return true
			case black:
			default:
				if visit(s) {
					return true
				}
			}
		}
		color[bb.Num()] = black
		return false
	}
	return len(f.Blocks) > 0 && visit(f.Blocks[0])
}

// layoutCost estimates the dynamic branch cost of laying blocks out in
// the given order, mirroring the simulated processors' cycle model and
// the lowering: a fallthrough unconditional branch is elided (free), a
// taken branch pays its instruction cycle plus the taken penalty, a
// conditional pair costs 1/2 cycles when one side falls through
// (branch-polarity inversion handles either side) and 2/3 when neither
// does, and a ret is a jump to the epilogue, which follows the last
// block. Per-block heat is entry frequency, so an edge into a block with
// no other predecessor carries that block's heat; other two-way edges
// split proportionally to successor heat (+1 so never-entered blocks
// keep plausible, order-preserving weights). Calls, switches and invokes
// cost the same in any order. npred is scratch, one entry per block
// number of order's function.
func layoutCost(order []*core.BasicBlock, heat heat, npred []int32) uint64 {
	clear(npred)
	for _, b := range order {
		for _, sc := range b.Successors() {
			npred[sc.Num()]++
		}
	}
	var cost uint64
	for i, b := range order {
		term := b.Terminator()
		if term == nil {
			continue
		}
		if term.Op() == core.OpRet {
			if i+1 < len(order) {
				cost += 2 * (heat.of(b) + 1)
			}
			continue
		}
		if term.Op() != core.OpBr {
			continue
		}
		var next *core.BasicBlock // laid out right after b
		if i+1 < len(order) {
			next = order[i+1]
		}
		succs := b.Successors()
		h := heat.of(b) + 1
		switch len(succs) {
		case 1:
			if succs[0] != next {
				cost += 2 * h
			}
		case 2:
			t0, f0 := succs[0], succs[1]
			ht, hf := heat.of(t0)+1, heat.of(f0)+1
			var ft uint64
			switch {
			case npred[t0.Num()] == 1:
				ft = min(ht, h)
			case npred[f0.Num()] == 1:
				ft = h - min(hf, h)
			default:
				ft = h * ht / (ht + hf)
			}
			ff := h - ft
			switch {
			case f0 == next:
				cost += 2*ft + ff
			case t0 == next:
				cost += ft + 2*ff
			default:
				cost += 2*ft + 3*ff
			}
		}
	}
	return cost
}

// formSuperblocks plans a trace-order relayout of clone.Blocks. Traces
// are seeded at the entry (always first, so the function still begins
// there) and at hot blocks in descending heat, and grown by following
// the hottest unvisited successor. When the hot continuation was
// already claimed by an earlier trace — a join, or a loop header — the
// trace may tail-duplicate it once (core.TailDuplicate) so the hot path
// keeps falling through. Cold blocks follow in their original order.
//
// The result is a permutation over the (possibly grown) f.Blocks, to be
// applied to the machine code after register allocation — never to the
// IR block list itself: the linear-scan allocator measures live
// intervals in block order, and reordering its input tears hot loops'
// intervals across cold code, buying fallthroughs with spills. A nil
// permutation means the candidate order lost to the original: the
// branch-cost model must score it strictly better: a relayout that breaks
// more fallthroughs than it makes must lose to the layout the profile
// was counted on.
func formSuperblocks(f *core.Function, hm *heat) (perm []int, nSuper, nDupInstrs int) {
	orig := append([]*core.BasicBlock(nil), f.Blocks...)
	idx := origIndex(make([]int32, f.BlockSlots()))
	for i := range idx {
		idx[i] = -1
	}
	for i, bb := range orig {
		idx[bb.Num()] = int32(i)
	}
	seeds := make([]*core.BasicBlock, 0, len(orig))
	for i, bb := range orig {
		if i == 0 || hm.of(bb) > 0 && rotatedLatch(orig, idx, bb) == nil {
			seeds = append(seeds, bb)
		}
	}
	sort.SliceStable(seeds, func(a, b int) bool {
		ia, ib := idx.of(seeds[a]), idx.of(seeds[b])
		if ia == 0 || ib == 0 {
			return ia == 0
		}
		if ha, hb := hm.of(seeds[a]), hm.of(seeds[b]); ha != hb {
			return ha > hb
		}
		return ia < ib
	})

	// Plan pass: grow the traces without touching f (no tail duplication)
	// and score the candidate. Tail duplication only ever removes taken
	// branches on top of this, so a plan that does not beat the original
	// order will not be rescued by it.
	plan := buildTraceOrder(nil, orig, seeds, hm, idx, nil, nil)
	npred := make([]int32, f.BlockSlots())
	if layoutCost(plan, *hm, npred) >= layoutCost(orig, *hm, npred) {
		return nil, 0, 0
	}
	order := buildTraceOrder(f, orig, seeds, hm, idx, &nSuper, &nDupInstrs)
	// Tail duplication appended its copies to f.Blocks; order holds the
	// same set of blocks in trace order. Express it as a permutation.
	pos := make([]int, f.BlockSlots())
	for i, bb := range f.Blocks {
		pos[bb.Num()] = i
	}
	perm = make([]int, len(order))
	for i, bb := range order {
		perm[i] = pos[bb.Num()]
	}
	return perm, nSuper, nDupInstrs
}

// origIndex is each block's index in the order formSuperblocks started
// from, by block number, and -1 for a block tail duplication added.
type origIndex []int32

// of returns bb's original index, or -1.
func (x origIndex) of(bb *core.BasicBlock) int {
	if n := bb.Num(); n < len(x) {
		return int(x[n])
	}
	return -1
}

// blockSet is a set of one function's blocks, by block number.
type blockSet []bool

func (s blockSet) has(bb *core.BasicBlock) bool {
	n := bb.Num()
	return n < len(s) && s[n]
}

func (s *blockSet) add(bb *core.BasicBlock) {
	if n := bb.Num(); n >= len(*s) {
		*s = append(*s, make(blockSet, n+1-len(*s))...)
	}
	(*s)[bb.Num()] = true
}

// buildTraceOrder grows a trace from each seed and appends the never-hot
// remainder in original order. With f nil it is a pure planning pass;
// with f set, traces may tail-duplicate their continuation into f and
// nSuper/nDupInstrs are recorded.
func buildTraceOrder(f *core.Function, orig, seeds []*core.BasicBlock,
	hm *heat, idx origIndex, nSuper, nDupInstrs *int) []*core.BasicBlock {
	visited := make(blockSet, len(idx))
	var order []*core.BasicBlock
	for _, sb := range seeds {
		if visited.has(sb) {
			continue
		}
		trace := growTrace(f, sb, hm, orig, idx, &visited, nDupInstrs)
		if len(trace) >= 2 && nSuper != nil {
			*nSuper++
		}
		order = append(order, trace...)
	}
	for _, bb := range orig {
		if !visited.has(bb) {
			visited.add(bb)
			order = append(order, bb)
		}
	}
	return order
}

func growTrace(f *core.Function, start *core.BasicBlock, hm *heat,
	orig []*core.BasicBlock, idx origIndex, visited *blockSet, nDupInstrs *int) []*core.BasicBlock {
	trace := []*core.BasicBlock{start}
	visited.add(start)
	cur := start
	dupped := false
	for {
		term := cur.Terminator()
		if term == nil {
			return trace
		}
		var next, taken *core.BasicBlock
		var nextHeat, takenHeat uint64
		for _, s := range cur.Successors() {
			h := hm.of(s)
			if visited.has(s) {
				if h > takenHeat {
					takenHeat, taken = h, s
				}
				continue
			}
			if h == 0 {
				continue
			}
			switch {
			case next == nil || h > nextHeat:
				nextHeat, next = h, s
			case h == nextHeat:
				// Tie: the counts cannot tell the sides apart, so keep
				// the successor that already fell through at tier 1.
				if ci := idx.of(cur); ci >= 0 && idx.of(s) == ci+1 {
					next = s
				}
			}
		}
		if latch := rotatedLatch(orig, idx, next); latch != nil && latch != cur {
			// A loop test BlockOrder placed below its body is left to its
			// latch's trace, which falls into it.
			next = nil
		}
		if next == nil {
			// The hot continuation is already placed elsewhere. Duplicate
			// it (at most once per trace, and only small SSA-private
			// blocks) so this trace ends in a private copy that falls
			// through; otherwise the trace ends here. The planning pass
			// (f nil) never duplicates.
			if f == nil || dupped || taken == nil || takenHeat == 0 || taken.Len() > tier2MaxDupInstrs {
				return trace
			}
			dup, ok := core.TailDuplicate(f, cur, taken)
			if !ok {
				return trace
			}
			// NewBlock appended dup at the end of f.Blocks; move it right
			// after its only predecessor so the linear scan sees a tight
			// interval — at the end it would stretch every value live into
			// the duplicated tail across the whole function.
			for i, bb := range f.Blocks {
				if bb == dup {
					copy(f.Blocks[i:], f.Blocks[i+1:])
					f.Blocks = f.Blocks[:len(f.Blocks)-1]
					break
				}
			}
			for i, bb := range f.Blocks {
				if bb == cur {
					f.Blocks = append(f.Blocks, nil)
					copy(f.Blocks[i+2:], f.Blocks[i+1:])
					f.Blocks[i+1] = dup
					break
				}
			}
			dupped = true
			// The copy takes over the entries cur sends to taken: all of
			// cur's own when cur only jumps there, at most that when
			// cur branches.
			moved := min(hm.of(cur), hm.of(taken))
			hm.set(dup, moved)
			hm.set(taken, hm.of(taken)-moved)
			*nDupInstrs += dup.Len()
			visited.add(dup)
			trace = append(trace, dup)
			cur = dup
			continue
		}
		visited.add(next)
		trace = append(trace, next)
		cur = next
	}
}

// rotatedLatch returns the latch of the loop whose test is b when the
// tier-1 order lays b out right after it (BlockOrder rotated the loop):
// the block before b only jumps to b, and b branches back above it. It
// returns nil for any other b, nil included.
func rotatedLatch(orig []*core.BasicBlock, idx origIndex, b *core.BasicBlock) *core.BasicBlock {
	if b == nil {
		return nil
	}
	i := idx.of(b)
	if i <= 0 {
		return nil
	}
	latch := orig[i-1]
	if s := latch.Successors(); len(s) != 1 || s[0] != b {
		return nil
	}
	for _, s := range b.Successors() {
		if j := idx.of(s); j >= 0 && j < i {
			return latch
		}
	}
	return nil
}

// invertCond returns the exact complement of c. Complements are exact on
// the simulated processor for FP too: conditions are decoded from the
// (eq, lt) flag pair, so c holds iff its complement does not — NaN
// compares set neither flag and land on the "greater" side consistently
// for both polarities.
func invertCond(c target.Cond) (target.Cond, bool) {
	switch c {
	case target.CondEQ:
		return target.CondNE, true
	case target.CondNE:
		return target.CondEQ, true
	case target.CondLT:
		return target.CondGE, true
	case target.CondGE:
		return target.CondLT, true
	case target.CondGT:
		return target.CondLE, true
	case target.CondLE:
		return target.CondGT, true
	}
	return c, false
}

// invertBranches rewrites the fused `jcc T; jmp F` pattern when block T
// starts immediately after the pair: inverting the condition and
// swapping targets lets elideFallthroughs delete the jump, so the path
// to T costs one branch fewer (2 cycles → 1) and the path to F replaces
// a fallthrough-plus-taken-jump with one taken jcc (3 → 2). Both sides
// win, so no profile guard is needed; after trace-order layout the hot
// successor is the fallthrough, which is where the savings concentrate.
func invertBranches(s *selector) {
	for i := 0; i+1 < len(s.code); i++ {
		jcc := &s.code[i]
		jmp := &s.code[i+1]
		if jcc.Op != target.MJcc || jmp.Op != target.MJmp || jcc.Target == jmp.Target {
			continue
		}
		tt := int(jcc.Target)
		if tt < 0 || tt >= len(s.blockStart) || s.blockStart[tt] != i+2 {
			continue
		}
		inv, ok := invertCond(jcc.Cnd)
		if !ok {
			continue
		}
		jcc.Cnd = inv
		jcc.Target, jmp.Target = jmp.Target, jcc.Target
	}
}

// threadJumps retargets branches that land on a block whose first
// executed instruction is an unconditional jump — a shape trace reorder
// leaves behind when a cold block holds nothing but a jump to the join.
// Each threaded branch saves the intermediate jump's 2 cycles. Chains
// are followed to a fixed point; the list of targets already visited
// (chains are a few hops at most) breaks degenerate cycles.
func threadJumps(s *selector) {
	seen := s.ws.seen
	resolve := func(t int32) int32 {
		seen = append(seen[:0], t)
		for {
			bi := int(t)
			if bi < 0 || bi >= len(s.blockStart) || s.blockStart[bi] >= len(s.code) {
				return t
			}
			in := &s.code[s.blockStart[bi]]
			if in.Op != target.MJmp || slices.Contains(seen, in.Target) {
				return t
			}
			t = in.Target
			seen = append(seen, t)
		}
	}
	for i := range s.code {
		switch s.code[i].Op {
		case target.MJmp, target.MJcc:
			s.code[i].Target = resolve(s.code[i].Target)
		}
	}
	s.ws.seen = seen
}
