package codegen

import (
	"math/bits"

	"llva/internal/target"
)

// isCopy reports whether m is a coalescing candidate: a move between two
// distinct virtual registers of one class. Copies to and from physical
// registers (arguments, results, SP) are left to the allocator, which
// drops the ones that land on their own register.
func (s *selector) isCopy(m *target.MInstr) bool {
	return m.Op == target.MMovRR && m.Rd != m.Rs1 && m.Rd.IsVirtual() && m.Rs1.IsVirtual() &&
		s.vFP[m.Rd-target.VRegBase] == s.vFP[m.Rs1-target.VRegBase]
}

// coalesce merges the source and destination of register copies and
// deletes the copies, between selection and register allocation. The
// selector lowers every φ through a carrier register (a copy per edge in
// the predecessor, one more at the head of the block), which is correct
// for any φ — the swap and lost-copy problems included — and leaves it
// to this pass to remove the copies that were not needed (paper, §3.1:
// φ becomes copies in the predecessors, most of which register
// allocation eliminates).
//
// The rule is Chaitin's, restricted to copy-related registers: two
// registers interfere when one is defined at a point where the other is
// live, unless that definition is a copy between the two — after it
// they hold the same value. A copy's two sides merge when their classes
// do not interfere. Interference is collected once, on the code as
// selected, in one backward walk per block from its live-out row; a
// merged class interferes with everything either side did, which only
// ever refuses a merge. Merges are taken in code order and a class is
// named by its member that appears first, so the result is a function of
// the code alone.
//
// lr must be s.code's block liveness. The pass leaves it the renamed
// code's: a class is live wherever a member was, and live into an
// unwind handler (so force-spilled) if a member was.
func coalesce(s *selector, lr *liveRows) {
	// Copy-related registers, numbered densely in order of appearance:
	// dense[v] is the number of virtual register v, or -1.
	ws, nv := s.ws, len(s.vFP)
	dense := zeroed(ws.dense, nv)
	ws.dense = dense
	for v := range dense {
		dense[v] = -1
	}
	n := 0
	for i := range s.code {
		if m := &s.code[i]; s.isCopy(m) {
			for _, r := range [2]target.Reg{m.Rd, m.Rs1} {
				if v := r - target.VRegBase; dense[v] < 0 {
					dense[v] = int32(n)
					n++
				}
			}
		}
	}
	if n == 0 {
		return
	}
	// class[k] is k's union-find parent; regOf[k] the register numbered k.
	ints := zeroed(ws.ints, 2*n)
	ws.ints = ints
	class, regOf := ints[:n], ints[n:]
	for v, k := range dense {
		if k >= 0 {
			class[k], regOf[k] = k, int32(v)
		}
	}
	denseOf := func(r target.Reg) int {
		if !r.IsVirtual() {
			return -1
		}
		return int(dense[r-target.VRegBase])
	}

	// adj is the interference matrix, one row of n bits per register;
	// the slab's last row is the walk's live set.
	words := (n + 63) / 64
	slab := zeroed(ws.adj, (n+1)*words)
	ws.adj = slab
	adj := func(k int) []uint64 { return slab[k*words : (k+1)*words] }
	live := slab[n*words:]

	var ubArr [8]target.Reg
	for b := 0; b < lr.nb; b++ {
		clear(live)
		for w, x := range lr.row(outRow, b) {
			for ; x != 0; x &= x - 1 {
				if k := dense[w<<6+bits.TrailingZeros64(x)]; k >= 0 {
					setBit(live, int(k))
				}
			}
		}
		for i := s.blockStart[b+1] - 1; i >= s.blockStart[b]; i-- {
			m := &s.code[i]
			if d := denseOf(instrDef(m)); d >= 0 {
				// d is defined here: it interferes with what is live after
				// the instruction, except the register it was copied from.
				src := -1
				if s.isCopy(m) {
					if src = denseOf(m.Rs1); !hasBit(live, src) {
						src = -1
					}
				}
				if src >= 0 {
					clearBit(live, src)
				}
				row := adj(d)
				for w, x := range live {
					row[w] |= x
				}
				if src >= 0 {
					setBit(live, src)
				}
				clearBit(live, d)
			}
			for _, r := range instrUses(m, ubArr[:0]) {
				if k := denseOf(r); k >= 0 {
					setBit(live, k)
				}
			}
		}
	}
	// A register does not interfere with itself, and the relation is
	// symmetric.
	for k := 0; k < n; k++ {
		clearBit(adj(k), k)
	}
	for k := 0; k < n; k++ {
		for w, x := range adj(k) {
			for ; x != 0; x &= x - 1 {
				setBit(adj(w<<6+bits.TrailingZeros64(x)), k)
			}
		}
	}

	find := func(k int) int {
		for int(class[k]) != k {
			class[k] = class[class[k]]
			k = int(class[k])
		}
		return k
	}
	merged := false
	for i := range s.code {
		m := &s.code[i]
		if !s.isCopy(m) {
			continue
		}
		a, c := find(denseOf(m.Rd)), find(denseOf(m.Rs1))
		if a == c || hasBit(adj(a), c) {
			continue
		}
		if c < a {
			a, c = c, a
		}
		// c joins a: a's row takes c's neighbours and they take a.
		class[c] = int32(a)
		ra := adj(a)
		for w, x := range adj(c) {
			ra[w] |= x
			for ; x != 0; x &= x - 1 {
				setBit(adj(w<<6+bits.TrailingZeros64(x)), a)
			}
		}
		merged = true
	}
	if !merged {
		return
	}

	// Rename: every register becomes its class's, the copies that became
	// self-moves go, and the liveness rows follow.
	rename := func(r target.Reg) target.Reg {
		if k := denseOf(r); k >= 0 {
			return target.VRegBase + target.Reg(regOf[find(k)])
		}
		return r
	}
	out, bi := 0, 0
	for i := range s.code {
		for ; bi < len(s.blockStart) && s.blockStart[bi] == i; bi++ {
			s.blockStart[bi] = out
		}
		m := &s.code[i]
		m.Rd, m.Rs1, m.Rs2 = rename(m.Rd), rename(m.Rs1), rename(m.Rs2)
		m.Base, m.Index = rename(m.Base), rename(m.Index)
		if m.Op == target.MMovRR && m.Rd == m.Rs1 {
			continue
		}
		if out != i {
			s.code[out] = *m
		}
		out++
	}
	for ; bi < len(s.blockStart); bi++ {
		s.blockStart[bi] = out
	}
	s.code = s.code[:out]

	for _, kind := range [2]int{inRow, outRow} {
		for b := 0; b <= lr.nb; b++ {
			row := lr.row(kind, b)
			for w, x := range row {
				for ; x != 0; x &= x - 1 {
					v := w<<6 + bits.TrailingZeros64(x)
					if k := int(dense[v]); k >= 0 {
						if a := find(k); a != k {
							clearBit(row, v)
							setBit(row, int(regOf[a]))
						}
					}
				}
			}
		}
	}
}
