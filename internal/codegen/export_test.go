package codegen

import "llva/internal/core"

// CoalesceCopies selects f and coalesces it, returning how many copies
// between virtual registers of one class the selector emitted and how
// many the coalescer left (the external hazard tests' count).
func (t *Translator) CoalesceCopies(f *core.Function) (before, after int) {
	s := newSelector(t, f)
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
