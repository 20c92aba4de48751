package machine

import (
	"fmt"
	"math"

	"llva/internal/target"
)

// The basic-block engine: the machine's analog of the trace cache LLEE
// exploits (Section 4.2). Instead of looking up every retired
// instruction in a per-PC decoded map, straight-line runs are predecoded
// once into flat []uop slices (uop.go) cached by entry PC, executed in a
// tight inner loop with batched Instrs/Cycles accounting, and *chained*:
// each block caches the successor block of its terminator's taken and
// fallthrough edges, so steady-state execution follows pointers and
// never touches the block map. Invalidation (SMC, Section 3.5's
// function-granularity contract) drops every block overlapping the
// invalidated code range; chained pointers into dropped blocks are
// unlinked lazily via the valid flag.

// block is a predecoded straight-line run ending at a terminator, the
// block-size cap, or the current end of the code segment.
type block struct {
	entry uint64
	end   uint64 // first byte past the last instruction
	ops   []uop  // never empty; a terminator, if the block has one, is last
	valid bool   // cleared by invalidation; chains check it before use
	taken *block // chained successor of the terminator's taken edge
	fall  *block // chained successor of the fallthrough edge
	hits  uint64 // entries not yet handed to the profiler (prof.go)
}

// maxBlockInstrs caps predecode lookahead so the instruction-limit check
// (hoisted to block granularity) overshoots by at most one block.
const maxBlockInstrs = 64

// Arena chunk sizes: blocks and their op slices are carved from chunked
// arenas owned by the machine (64 blocks, or 1024 ops = 32 KiB, a chunk),
// so steady-state predecoding costs O(1/chunk) allocations instead of
// one block struct plus log2(len) append-growth reallocations per block.
// Invalidated blocks are dropped from the map but their arena storage is
// reclaimed only when the machine itself dies — bounded by SMC activity,
// which is rare by the §3.5 contract.
const (
	blockChunkLen = 64
	opChunkLen    = 1024
)

// newBlock carves a zeroed block from the machine's block arena.
func (mc *Machine) newBlock() *block {
	if len(mc.blockChunk) == cap(mc.blockChunk) {
		mc.blockChunk = make([]block, 0, blockChunkLen)
	}
	mc.blockChunk = append(mc.blockChunk, block{})
	return &mc.blockChunk[len(mc.blockChunk)-1]
}

// sealOps copies the predecode scratch into an exact-size slice carved
// from the op arena. The returned slice has no spare capacity, so later
// carves can never alias it.
func (mc *Machine) sealOps(scratch []uop) []uop {
	if len(scratch) > cap(mc.opChunk)-len(mc.opChunk) {
		mc.opChunk = make([]uop, 0, opChunkLen)
	}
	start := len(mc.opChunk)
	mc.opChunk = append(mc.opChunk, scratch...)
	return mc.opChunk[start:len(mc.opChunk):len(mc.opChunk)]
}

// blockFor returns the cached block at pc, predecoding it on a miss.
func (mc *Machine) blockFor(pc uint64) (*block, error) {
	if b := mc.blocks[pc]; b != nil {
		return b, nil
	}
	return mc.buildBlock(pc)
}

// buildBlock predecodes the straight-line run starting at pc and lowers
// it to uops. Decode errors past the first instruction just cut the block
// short: execution that actually falls through to the bad PC reports the
// error then, matching the old per-instruction fetch's lazy semantics.
func (mc *Machine) buildBlock(pc uint64) (*block, error) {
	if pc < mc.codeBase || pc >= mc.codeEnd {
		return nil, &TrapError{Num: TrapMemoryFault, PC: pc,
			Detail: "instruction fetch outside code segment"}
	}
	// The code view is bounded at codeEnd so a truncated encoding at the
	// segment's edge errors exactly like the old 16-byte fetch window.
	view := mc.code[:mc.codeEnd-mc.codeBase]
	// Lower into the machine's scratch buffer (sized for the largest
	// possible block), then seal the exact-size run into the arena.
	if mc.opScratch == nil {
		mc.opScratch = make([]uop, 0, maxBlockInstrs)
	}
	ops := mc.opScratch[:0]
	at := pc
	var instrs uint8 // at most maxBlockInstrs
	var cum uint16   // at most maxBlockInstrs x 14, the dearest instruction
	for instrs < maxBlockInstrs && at < mc.codeEnd {
		in, n, err := mc.desc.DecodeFrom(view, int(at-mc.codeBase))
		if err != nil {
			if instrs == 0 {
				return nil, fmt.Errorf("machine: decode at 0x%x: %w", at, err)
			}
			break
		}
		u := mc.lower(&in, at, n)
		instrs++
		cum += uint16(mc.desc.Cycles(&in))
		u.off, u.n, u.cum = uint16(at-pc), instrs, cum
		at += uint64(n)
		if last := len(ops) - 1; last < 0 || !fuse(&ops[last], &u) {
			ops = append(ops, u)
		}
		if in.Op.Is(target.EndsBlock) {
			break
		}
	}
	b := mc.newBlock()
	b.entry = pc
	b.valid = true
	b.ops = mc.sealOps(ops)
	b.end = at
	mc.blocks[pc] = b
	mc.Stats.BlockBuilds++
	mc.Stats.ICacheFills += uint64(instrs)
	return b, nil
}

// runBlock executes one predecoded block. It returns the chained
// successor block when the terminator's edge is already linked (or can
// be linked from the block map), nil when the caller must look the next
// PC up itself.
//
// The common forms are handled in the loop; the rest go through general,
// as does a fast load or store that its accessor declined.
// Nothing is stored per op: mc.pc is written by a terminator (and, so
// that whoever it calls can read it, before a call of any kind), by the
// fall off the block's end and by fault; the counters are flushed from
// the last op executed, which knows how many instructions and cycles of
// the block went before it; mc.pendCycles, which keeps the virtual clock
// exact for an extern that reads it, is set around extern calls only.
func (mc *Machine) runBlock(b *block) (*block, error) {
	var (
		r   = &mc.regs
		m   = mc.mem
		u   *uop
		err error
	)
	for i := range b.ops {
		u = &b.ops[i]
		switch u.op {
		case uNop:
		case uMov:
			r[u.rd] = r[u.ra]
		case uMovI:
			r[u.rd] = u.imm

		case uLd64:
			v, ok := m.LoadLE64(u.ea(r))
			if !ok {
				goto general
			}
			r[u.rd] = v
		case uLd32S:
			v, ok := m.LoadLE32(u.ea(r))
			if !ok {
				goto general
			}
			r[u.rd] = uint64(int64(int32(v)))
		case uLd32U:
			v, ok := m.LoadLE32(u.ea(r))
			if !ok {
				goto general
			}
			r[u.rd] = v
		case uLd16S:
			v, ok := m.LoadLE16(u.ea(r))
			if !ok {
				goto general
			}
			r[u.rd] = uint64(int64(int16(v)))
		case uLd16U:
			v, ok := m.LoadLE16(u.ea(r))
			if !ok {
				goto general
			}
			r[u.rd] = v
		case uLd8S:
			v, ok := m.LoadLE8(u.ea(r))
			if !ok {
				goto general
			}
			r[u.rd] = uint64(int64(int8(v)))
		case uLd8U:
			v, ok := m.LoadLE8(u.ea(r))
			if !ok {
				goto general
			}
			r[u.rd] = v
		case uSt64:
			if !m.StoreLE64(u.ea(r), r[u.ra]) {
				goto general
			}
		case uSt32:
			if !m.StoreLE32(u.ea(r), r[u.ra]) {
				goto general
			}
		case uSt16:
			if !m.StoreLE16(u.ea(r), r[u.ra]) {
				goto general
			}
		case uSt8:
			if !m.StoreLE8(u.ea(r), r[u.ra]) {
				goto general
			}
		case uLea:
			r[u.rd] = u.ea(r)

		case uAdd64:
			r[u.rd] = r[u.ra] + (r[u.rb] + u.imm)
		case uAddS32:
			r[u.rd] = uint64(int64(int32(r[u.ra] + (r[u.rb] + u.imm))))
		case uSub64:
			r[u.rd] = r[u.ra] - (r[u.rb] + u.imm)
		case uSubS32:
			r[u.rd] = uint64(int64(int32(r[u.ra] - (r[u.rb] + u.imm))))
		case uAnd64:
			r[u.rd] = r[u.ra] & (r[u.rb] + u.imm)
		case uOr64:
			r[u.rd] = r[u.ra] | (r[u.rb] + u.imm)
		case uXor64:
			r[u.rd] = r[u.ra] ^ (r[u.rb] + u.imm)
		case uSext32:
			r[u.rd] = uint64(int64(int32(r[u.ra])))
		case uFAdd:
			r[u.rd] = math.Float64bits(math.Float64frombits(r[u.ra]) + math.Float64frombits(r[u.rb]))
		case uFSub:
			r[u.rd] = math.Float64bits(math.Float64frombits(r[u.ra]) - math.Float64frombits(r[u.rb]))
		case uFMul:
			r[u.rd] = math.Float64bits(math.Float64frombits(r[u.ra]) * math.Float64frombits(r[u.rb]))

		case uCmpS:
			mc.flags = cmpSigned(r[u.ra], r[u.rb]+u.imm)
		case uCmpU:
			mc.flags = cmpUnsigned(r[u.ra], r[u.rb]+u.imm)
		case uCmpF:
			mc.flags = cmpFloat(r[u.ra], r[u.rb]+u.imm)
		case uSetCC:
			r[u.rd] = u.truth(mc.flags)
		case uSetCmpS:
			mc.flags = cmpSigned(r[u.ra], r[u.rb]+u.imm)
			r[u.rd] = u.truth(mc.flags)
		case uSetCmpU:
			mc.flags = cmpUnsigned(r[u.ra], r[u.rb]+u.imm)
			r[u.rd] = u.truth(mc.flags)
		case uSetCmpF:
			mc.flags = cmpFloat(r[u.ra], r[u.rb]+u.imm)
			r[u.rd] = u.truth(mc.flags)

		// Terminators. A conditional branch not taken is the block's last
		// op like any other: the loop ends and execution falls off the end.
		case uJmp:
			mc.Stats.Branches++
			mc.pc = u.imm
			goto taken
		case uJcc:
			mc.Stats.Branches++
			if u.holds(mc.flags) {
				mc.pc = u.imm
				goto taken
			}
		case uJccZ:
			mc.Stats.Branches++
			mc.flags = cmpSigned(r[u.ra], 0)
			if u.holds(mc.flags) {
				mc.pc = u.imm
				goto taken
			}
		case uCmpJccS:
			mc.Stats.Branches++
			mc.flags = cmpSigned(r[u.ra], r[u.rb]+u.imm)
			if u.holds(mc.flags) {
				mc.pc = u.aux
				goto taken
			}
		case uCmpJccU:
			mc.Stats.Branches++
			mc.flags = cmpUnsigned(r[u.ra], r[u.rb]+u.imm)
			if u.holds(mc.flags) {
				mc.pc = u.aux
				goto taken
			}
		case uCmpJccF:
			mc.Stats.Branches++
			mc.flags = cmpFloat(r[u.ra], r[u.rb]+u.imm)
			if u.holds(mc.flags) {
				mc.pc = u.aux
				goto taken
			}
		case uCall:
			mc.Stats.Calls++
			mc.pc = b.pc(u)
			if err = mc.callTo(u.imm, u.aux); err != nil {
				goto fault
			}
			// Direct calls have a fixed target: chainable.
			mc.retire(u)
			return mc.chain(&b.taken), nil
		// Dynamic transfers (indirect call, return, unwind, JIT stub
		// dispatch) resolve through the block map.
		case uCallInd:
			mc.Stats.Calls++
			mc.pc = b.pc(u)
			if err = mc.callTo(r[u.ra], u.aux); err != nil {
				goto fault
			}
			mc.retire(u)
			return nil, nil
		case uRet:
			mc.pc = b.pc(u)
			if err = mc.ret(); err != nil {
				goto fault
			}
			mc.retire(u)
			return nil, nil
		case uUnwind:
			if err = mc.unwind(); err != nil {
				goto fault
			}
			mc.retire(u)
			return nil, nil
		case uCallExt:
			var jumped bool
			mc.pc = b.pc(u)
			mc.pendCycles = uint64(u.cum)
			jumped, err = mc.callExt(u)
			mc.pendCycles = 0
			if err != nil {
				goto fault
			}
			if jumped {
				mc.retire(u)
				return nil, nil
			}

		default:
			goto general
		}
		continue

	general:
		// Every op without an arm above, and a load or store whose inlined
		// accessor declined: general repeats it through mem.Load or
		// mem.Store, which fault or mark the page.
		mc.pc = b.pc(u)
		if err = mc.general(u); err != nil {
			goto fault
		}
	}
	// Fell off the end: an untaken conditional branch, an extern call that
	// returned, or a block cut at the size cap / a decode boundary. The
	// fallthrough edge is static.
	mc.retire(u)
	mc.pc = b.end
	return mc.chain(&b.fall), nil

taken:
	// Taken branches redirect the fetch stream: +1 cycle. This is what
	// makes trace-driven code layout measurable (Section 4.2).
	mc.retire(u)
	mc.Stats.BranchesTaken++
	mc.Stats.Cycles++
	return mc.chain(&b.taken), nil

fault:
	// Surface what was *at* the faulting PC: this path is cold, so the
	// instruction is decoded again to be rendered.
	mc.retire(u)
	mc.pc = b.pc(u)
	if te, ok := err.(*TrapError); ok && te.Mnemonic == "" && te.PC == mc.pc {
		if in, _, derr := mc.desc.DecodeFrom(mc.code[:mc.codeEnd-mc.codeBase], int(mc.pc-mc.codeBase)); derr == nil {
			te.Mnemonic = in.String()
		}
	}
	return nil, err
}

// pc is the address of the instruction u was lowered from.
func (b *block) pc(u *uop) uint64 { return b.entry + uint64(u.off) }

// retire flushes the counters after u, the last op a block executed.
func (mc *Machine) retire(u *uop) {
	mc.Stats.Instrs += uint64(u.n)
	mc.Stats.Cycles += uint64(u.cum)
}

// ea is the effective address of u's memory operand. An absent index
// names the zero slot.
func (u *uop) ea(r *[regSlots]uint64) uint64 {
	return r[u.rb] + r[u.rx]*uint64(u.sc) + uint64(int64(u.disp))
}

// chain resolves a successor edge: follow the cached pointer when it is
// still valid, otherwise try to (re)link it from the block map. Only
// pointer-followed transitions count as chains — the steady state the
// metric certifies is map-free.
func (mc *Machine) chain(slot **block) *block {
	if nb := *slot; nb != nil {
		if nb.valid && nb.entry == mc.pc {
			mc.Stats.BlockChains++
			return nb
		}
		*slot = nil
	}
	if nb := mc.blocks[mc.pc]; nb != nil {
		*slot = nb
		return nb
	}
	return nil
}

// invalidateBlocks drops every cached block overlapping [lo, hi) — the
// machine half of the paper's function-granularity SMC contract
// (Section 3.5): after new code is installed over a range or a function
// is rebound, no stale predecoded run of it may execute again. Chained
// pointers into dropped blocks die via the valid flag.
func (mc *Machine) invalidateBlocks(lo, hi uint64) {
	for entry, b := range mc.blocks {
		if b.entry < hi && b.end > lo {
			mc.flushHits(b)
			b.valid = false
			b.taken, b.fall = nil, nil
			delete(mc.blocks, entry)
			mc.Stats.BlockInvalidations++
		}
	}
}
