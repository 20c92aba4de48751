package machine

import (
	"fmt"

	"llva/internal/target"
)

// The basic-block engine: the machine's analog of the trace cache LLEE
// exploits (Section 4.2). Instead of looking up every retired
// instruction in a per-PC decoded map, straight-line runs are predecoded
// once into flat []decoded slices cached by entry PC, executed in a
// tight inner loop with batched Instrs/Cycles accounting, and *chained*:
// each block caches the successor block of its terminator's taken and
// fallthrough edges, so steady-state execution follows pointers and
// never touches the block map. Invalidation (SMC, Section 3.5's
// function-granularity contract) drops every block overlapping the
// invalidated code range; chained pointers into dropped blocks are
// unlinked lazily via the valid flag.

// decoded is one predecoded instruction inside a block.
type decoded struct {
	in  target.MInstr
	n   int    // encoded length
	pc  uint64 // instruction address (precise trap PCs, relative targets)
	cum uint64 // block cycles through this instruction, inclusive
}

// block is a predecoded straight-line run ending at a terminator, the
// block-size cap, or the current end of the code segment.
type block struct {
	entry  uint64
	end    uint64 // first byte past the last instruction
	instrs []decoded
	valid  bool   // cleared by invalidation; chains check it before use
	taken  *block // chained successor of the terminator's taken edge
	fall   *block // chained successor of the fallthrough edge
}

// maxBlockInstrs caps predecode lookahead so the instruction-limit check
// (hoisted to block granularity) overshoots by at most one block.
const maxBlockInstrs = 64

// Arena chunk sizes: blocks and their instruction slices are carved from
// chunked arenas owned by the machine, so steady-state predecoding costs
// O(1/chunk) allocations instead of one block struct plus log2(len)
// append-growth reallocations per block. Invalidated blocks are dropped
// from the map but their arena storage is reclaimed only when the
// machine itself dies — bounded by SMC activity, which is rare
// by the §3.5 contract.
const (
	blockChunkLen = 64
	instrChunkLen = 1024
)

// newBlock carves a zeroed block from the machine's block arena.
func (mc *Machine) newBlock() *block {
	if len(mc.blockChunk) == cap(mc.blockChunk) {
		mc.blockChunk = make([]block, 0, blockChunkLen)
	}
	mc.blockChunk = append(mc.blockChunk, block{})
	return &mc.blockChunk[len(mc.blockChunk)-1]
}

// sealInstrs copies the predecode scratch into an exact-size slice carved
// from the instruction arena. The returned slice has no spare capacity,
// so later carves can never alias it.
func (mc *Machine) sealInstrs(scratch []decoded) []decoded {
	if len(scratch) > cap(mc.instrChunk)-len(mc.instrChunk) {
		mc.instrChunk = make([]decoded, 0, instrChunkLen)
	}
	start := len(mc.instrChunk)
	mc.instrChunk = append(mc.instrChunk, scratch...)
	return mc.instrChunk[start:len(mc.instrChunk):len(mc.instrChunk)]
}

// isTerminator reports whether op can redirect the PC (or always traps)
// and therefore ends a basic block.
func isTerminator(op target.MOp) bool {
	switch op {
	case target.MJmp, target.MJcc, target.MCall, target.MCallInd,
		target.MCallExt, target.MRet, target.MUnwind, target.MTrap:
		return true
	}
	return false
}

// blockFor returns the cached block at pc, predecoding it on a miss.
func (mc *Machine) blockFor(pc uint64) (*block, error) {
	if b := mc.blocks[pc]; b != nil {
		return b, nil
	}
	return mc.buildBlock(pc)
}

// buildBlock predecodes the straight-line run starting at pc. Decode
// errors past the first instruction just cut the block short: execution
// that actually falls through to the bad PC reports the error then,
// matching the old per-instruction fetch's lazy semantics.
func (mc *Machine) buildBlock(pc uint64) (*block, error) {
	if pc < mc.codeBase || pc >= mc.codeEnd {
		return nil, &TrapError{Num: TrapMemoryFault, PC: pc,
			Detail: "instruction fetch outside code segment"}
	}
	// The code view is bounded at codeEnd so a truncated encoding at the
	// segment's edge errors exactly like the old 16-byte fetch window.
	view := mc.code[:mc.codeEnd-mc.codeBase]
	// Predecode into the machine's scratch buffer (sized for the largest
	// possible block), then seal the exact-size run into the arena.
	if mc.decodeScratch == nil {
		mc.decodeScratch = make([]decoded, 0, maxBlockInstrs)
	}
	scratch := mc.decodeScratch[:0]
	at := pc
	var cum uint64
	for len(scratch) < maxBlockInstrs && at < mc.codeEnd {
		in, n, err := mc.desc.DecodeFrom(view, int(at-mc.codeBase))
		if err != nil {
			if len(scratch) == 0 {
				return nil, fmt.Errorf("machine: decode at 0x%x: %w", at, err)
			}
			break
		}
		cum += mc.desc.Cycles(&in)
		scratch = append(scratch, decoded{in: in, n: n, pc: at, cum: cum})
		at += uint64(n)
		if isTerminator(in.Op) {
			break
		}
	}
	b := mc.newBlock()
	b.entry = pc
	b.valid = true
	b.instrs = mc.sealInstrs(scratch)
	b.end = at
	mc.blocks[pc] = b
	mc.Stats.BlockBuilds++
	mc.Stats.ICacheFills += uint64(len(b.instrs))
	return b, nil
}

// runBlock executes one predecoded block. It returns the chained
// successor block when the terminator's edge is already linked (or can
// be linked from the block map), nil when the caller must look the next
// PC up itself.
func (mc *Machine) runBlock(b *block) (*block, error) {
	instrs := b.instrs
	for i := range instrs {
		dd := &instrs[i]
		mc.pc = dd.pc
		// Cycles are flushed at block exit; pendCycles keeps the virtual
		// clock exact for externs (clock()) that read it mid-block.
		mc.pendCycles = dd.cum
		jumped, err := mc.exec(&dd.in, dd.n)
		if err != nil {
			mc.Stats.Instrs += uint64(i + 1)
			mc.Stats.Cycles += dd.cum
			mc.pendCycles = 0
			// Surface what was *at* the faulting PC: the predecoded
			// instruction renders for free on this cold path.
			if te, ok := err.(*TrapError); ok && te.Mnemonic == "" && te.PC == dd.pc {
				te.Mnemonic = dd.in.String()
			}
			return nil, err
		}
		if !jumped {
			continue
		}
		// Only a terminator redirects the PC, so this is the last
		// instruction of the block.
		mc.Stats.Instrs += uint64(i + 1)
		mc.Stats.Cycles += dd.cum
		mc.pendCycles = 0
		switch dd.in.Op {
		case target.MJmp, target.MJcc:
			// Taken branches redirect the fetch stream: +1 cycle. This
			// is what makes trace-driven code layout measurable
			// (Section 4.2).
			mc.Stats.Branches++
			mc.Stats.BranchesTaken++
			mc.Stats.Cycles++
			return mc.chain(&b.taken), nil
		case target.MCall:
			// Direct calls have a fixed target: chainable.
			return mc.chain(&b.taken), nil
		}
		// Dynamic transfers (indirect call, return, unwind, JIT stub
		// dispatch) resolve through the block map.
		return nil, nil
	}
	// Fell off the end: an untaken conditional branch, or a block cut at
	// the size cap / a decode boundary. The fallthrough edge is static.
	last := &instrs[len(instrs)-1]
	mc.Stats.Instrs += uint64(len(instrs))
	mc.Stats.Cycles += last.cum
	mc.pendCycles = 0
	if last.in.Op == target.MJcc {
		mc.Stats.Branches++
	}
	mc.pc = b.end
	return mc.chain(&b.fall), nil
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
			b.valid = false
			b.taken, b.fall = nil, nil
			delete(mc.blocks, entry)
			mc.Stats.BlockInvalidations++
		}
	}
}
