package codegen

import (
	"sync"

	"llva/internal/core"
	"llva/internal/target"
)

// CoalesceCopies selects f and coalesces it, returning how many copies
// between virtual registers of one class the selector emitted and how
// many the coalescer left (the external hazard tests' count).
func (t *Translator) CoalesceCopies(f *core.Function) (before, after int) {
	s := newSelector(t, f, new(workspace))
	s.run()
	count := func() (n int) {
		for i := range s.code {
			if s.isCopy(&s.code[i]) {
				n++
			}
		}
		return n
	}
	before = count()
	coalesce(s, solveLiveness(s))
	return before, count()
}

// Tier2Transform runs tier 2's IR stage on f — clone, inline, form
// superblocks, verify — and discards the clone: everything a tier-2
// TranslateFunction of a hot function does but lowering.
func (t *Translator) Tier2Transform(f *core.Function) {
	tier2Mu.Lock()
	defer tier2Mu.Unlock()
	clone := core.CloneFunctionBody(f)
	defer core.DiscardFunctionBody(clone)
	t.transformTier2(f, clone)
}

// PanicInLowering makes the next lowering of the function named name
// panic with v once its workspace is written, between register
// allocation and frame lowering. Until restore, reused reports whether
// any later lowering ran in the workspace that panicking one dropped.
func PanicInLowering(name string, v any) (reused func() bool, restore func()) {
	var mu sync.Mutex
	var dropped *workspace
	again := false
	lowerTestHook = func(s *selector) {
		mu.Lock()
		defer mu.Unlock()
		if dropped == nil && s.f.Name() == name {
			dropped = s.ws
			panic(v)
		}
		again = again || s.ws == dropped
	}
	reused = func() bool {
		mu.Lock()
		defer mu.Unlock()
		return again
	}
	return reused, func() { lowerTestHook = nil }
}

// WidenFirstLoad makes every lowering until restore give its first load
// an index register scaled by 4 and a displacement, [base + base*4 + 8],
// between register allocation and frame lowering.
func WidenFirstLoad() (restore func()) {
	lowerTestHook = func(s *selector) {
		for i := range s.code {
			if in := &s.code[i]; in.Op == target.MLoad {
				in.Index, in.Scale, in.Disp = in.Base, 4, 8
				return
			}
		}
	}
	return func() { lowerTestHook = nil }
}
