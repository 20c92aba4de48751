package codegen

import (
	"sync"

	"llva/internal/target"
)

// spillOnly holds the translators UseSpillAllocator switched to the
// spill-everything allocator.
var spillOnly sync.Map // *Translator -> struct{}

// UseSpillAllocator makes t allocate every function with the paper's
// naive spill-everything allocator, the differential-testing oracle for
// the global linear scan.
func (t *Translator) UseSpillAllocator(on bool) {
	if on {
		spillOnly.Store(t, struct{}{})
	} else {
		spillOnly.Delete(t)
	}
}

func init() {
	allocTestHook = func(s *selector) bool {
		if _, on := spillOnly.Load(s.t); !on {
			return false
		}
		allocSpill(s)
		return true
	}
}

// allocSpill is the naive spill-everything allocator: every virtual
// register lives in a stack slot; each instruction loads its operands
// into scratch registers and stores its result back. This reproduces the
// paper's minimal-effort x86 back-end ("significant spill code").
func allocSpill(s *selector) {
	a := newAllocation(s.ws, len(s.vFP))
	slot := func(r target.Reg) {
		if v := int(r) - int(target.VRegBase); r.IsVirtual() && a.slotOf[v] < 0 {
			a.spill(v)
		}
	}
	// Slots in first-appearance order.
	var usesArr [8]target.Reg
	for i := range s.code {
		for _, r := range s.code[i].AppendUses(usesArr[:0]) {
			slot(r)
		}
		slot(s.code[i].Def())
	}
	s.commit(a, rewriteWithSlots(s, a))
}
