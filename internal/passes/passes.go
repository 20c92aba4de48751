// Package passes implements the mid-level optimizer that the LLVA
// representation enables (paper, Section 5.1): classical dataflow and
// control-flow optimizations exploiting the explicit CFG and SSA form
// (mem2reg, constant propagation, common subexpression elimination, dead
// code elimination, loop-invariant code motion, CFG simplification) plus
// interprocedural transformations performed at link time (inlining, dead
// global and dead function elimination).
package passes

import (
	"fmt"
	"sort"
	"strings"

	"llva/internal/core"
)

// Stats accumulates named counters across a pipeline run.
type Stats struct {
	Counts map[string]int
}

// NewStats creates an empty counter set.
func NewStats() *Stats { return &Stats{Counts: make(map[string]int)} }

// Add increments a counter.
func (s *Stats) Add(key string, n int) {
	if s == nil {
		return
	}
	s.Counts[key] += n
}

// String renders the counters sorted by name.
func (s *Stats) String() string {
	keys := make([]string, 0, len(s.Counts))
	for k := range s.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-32s %d\n", k, s.Counts[k])
	}
	return b.String()
}

// Pass is a module transformation. Run returns true if it changed the
// module.
type Pass struct {
	Name string
	Run  func(m *core.Module, s *Stats) bool
}

// Pipeline is an ordered list of passes.
type Pipeline struct {
	Passes []Pass
	// Verify re-runs the IR verifier after every pass (used in tests).
	Verify bool
}

// Run executes the pipeline once, returning whether anything changed.
func (p *Pipeline) Run(m *core.Module, s *Stats) (bool, error) {
	changed := false
	for _, pass := range p.Passes {
		if pass.Run(m, s) {
			changed = true
		}
		if p.Verify {
			if err := core.Verify(m); err != nil {
				return changed, fmt.Errorf("after pass %s: %w", pass.Name, err)
			}
		}
	}
	return changed, nil
}

// O2 returns the full link-time pipeline described in Section 5.1,
// iterated to a (bounded) fixpoint. Its last pass, BlockOrder, leaves
// every function's blocks in reverse postorder.
func O2() *Pipeline {
	round := []Pass{
		{"mem2reg", Mem2Reg},
		{"instcombine", InstCombine},
		{"simplifycfg", SimplifyCFG},
		{"constprop", ConstProp},
		{"cse", CSE},
		{"licm", LICM},
		{"dce", DCE},
		{"simplifycfg", SimplifyCFG},
	}
	var all []Pass
	all = append(all, Pass{"inline", Inline})
	all = append(all, round...)
	all = append(all, Pass{"inline", Inline})
	all = append(all, round...)
	all = append(all, Pass{"deadglobals", DeadGlobals})
	all = append(all, Pass{"blockorder", BlockOrder})
	return &Pipeline{Passes: all}
}

// Optimize runs the O2 pipeline and returns the stats.
func Optimize(m *core.Module) (*Stats, error) {
	s := NewStats()
	_, err := O2().Run(m, s)
	return s, err
}

// ByName returns a single-pass pipeline for the named pass.
func ByName(name string) (Pass, bool) {
	for _, p := range []Pass{
		{"mem2reg", Mem2Reg},
		{"instcombine", InstCombine},
		{"simplifycfg", SimplifyCFG},
		{"constprop", ConstProp},
		{"cse", CSE},
		{"licm", LICM},
		{"dce", DCE},
		{"adce", ADCE},
		{"inline", Inline},
		{"deadglobals", DeadGlobals},
		{"poolalloc", PoolAllocate},
	} {
		if p.Name == name {
			return p, true
		}
	}
	return Pass{}, false
}

// forEachDefined visits every function with a body.
func forEachDefined(m *core.Module, fn func(f *core.Function) bool) bool {
	changed := false
	for _, f := range m.Functions {
		if f.IsDeclaration() {
			continue
		}
		if fn(f) {
			changed = true
		}
	}
	return changed
}

// eraseDeadInstr erases in if it is trivially dead (no uses, no side
// effects). Returns true if erased.
func eraseDeadInstr(in *core.Instruction) bool {
	if !isPure(in) || in.NumUses() != 0 {
		return false
	}
	if !in.HasResult() {
		return false
	}
	in.EraseFromParent()
	return true
}

// isPure reports whether the instruction has no side effects and can be
// deleted when unused or reordered freely. Per the paper's exception
// model, an instruction whose ExceptionsEnabled attribute is false may be
// removed/reordered even if it could fault (Section 3.3) — this is the
// optimization latitude the attribute exists to provide.
func isPure(in *core.Instruction) bool {
	switch in.Op() {
	case core.OpCall, core.OpInvoke, core.OpStore, core.OpRet, core.OpBr,
		core.OpMbr, core.OpUnwind, core.OpAlloca:
		return false
	case core.OpDiv, core.OpRem, core.OpLoad:
		return !in.ExceptionsEnabled
	}
	return true
}
