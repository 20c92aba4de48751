package machine

import (
	"sort"

	"llva/internal/prof"
	"llva/internal/target"
)

// Guest-level observability hooks: the machine half of internal/prof.
//
// Sampling is deterministic — triggered every profiler-rate retired
// virtual instructions, checked at basic-block boundaries where the
// instruction counter is already being flushed — so enabling the
// profiler never changes simulated instruction or cycle counts, and
// disabling it leaves exactly one nil compare per block in the hot
// loop. The wall clock is never consulted. Under the same compare, each
// block counts its entries exactly; the counts reach the profiler when a
// run ends and when invalidation drops a block, so the profile's block
// entries are exact, not sampled.
//
// The virtual backtrace comes from a shadow call stack of return
// addresses, maintained only while call tracking is on: pushed by
// call, popped by ret, truncated by unwind to the invoking frame's
// recorded depth. Samples and crash reports resolve the addresses to
// functions lazily, so tracking a call costs one slice append.

// SetProfiler attaches (or, with nil, detaches) a sampling profiler.
// Attaching enables call tracking so samples carry virtual stacks.
func (mc *Machine) SetProfiler(p *prof.Profiler) {
	mc.prof = p
	if p != nil {
		mc.trackCalls = true
	}
}

// EnableFlightRecorder arms the trap-time flight recorder: when a run
// ends in an unhandled trap, a CrashReport with registers, backtrace,
// a disassembly window, and the last events tail of events from the
// attached telemetry ring is captured (LastCrash). Zero steady-state
// cost: the snapshot is built only on the trap path.
func (mc *Machine) EnableFlightRecorder(events int) {
	mc.recordCrash = true
	mc.crashEvents = events
	mc.trackCalls = true
}

// LastCrash returns the flight recorder's snapshot of the most recent
// run that ended in an unhandled trap (nil when none, or the recorder
// is off).
func (mc *Machine) LastCrash() *prof.CrashReport { return mc.lastCrash }

// funcAt resolves the function whose installed code contains pc, or the
// stub bound at pc.
func (mc *Machine) funcAt(pc uint64) (name string, lo uint64, ok bool) {
	if r, found := mc.bodyAt(pc); found {
		return r.name, r.lo, true
	}
	// Stubs and extern thunks are not in funcCode; they are bound in
	// the reverse map at their entry address.
	if n, found := mc.addrFunc[pc]; found {
		return n, pc, true
	}
	return "", 0, false
}

// bodyAt finds the installed function body containing pc. funcCode is
// naturally sorted by lo (code addresses only grow), so a binary search
// finds the candidate range.
func (mc *Machine) bodyAt(pc uint64) (codeRange, bool) {
	i := sort.Search(len(mc.funcCode), func(i int) bool {
		return mc.funcCode[i].lo > pc
	})
	if i > 0 {
		if r := mc.funcCode[i-1]; pc >= r.lo && pc < r.hi {
			return r, true
		}
	}
	return codeRange{}, false
}

// flushHits hands b's entries since the last flush to the profiler, as
// entries of the LLVA blocks b spans the start of: an LLVA block is
// entered as often as its first instruction runs, once per entry of every
// machine block that holds it. A block the lowering left empty has no
// instruction of its own, and its start is the next block's: it gets no
// entries. Neither do the blocks of a body without a block table (tier-2
// code), nor those of a lazy stub, which belongs to no body: the callee's
// own blocks count its entries. Every block, stubs included, adds its
// instructions to the census (census).
func (mc *Machine) flushHits(b *block) {
	if b.hits == 0 {
		return
	}
	if mc.prof != nil {
		if r, found := mc.bodyAt(b.entry); found {
			t := r.blocks
			off, end := b.entry-r.lo, b.end-r.lo
			n := t.Len() - 1 // the last entry is the epilogue's
			for i := sort.Search(n, func(i int) bool { return t.Off(i) >= off }); i < n && t.Off(i) < end; i++ {
				if t.Off(i) < t.Off(i+1) {
					mc.prof.AddBlockHits(r.name, i, b.hits)
				}
			}
		}
		mc.census(b)
	}
	b.hits = 0
}

// census hands the profiler what b's entries retired, op by op: every
// instruction of b once per entry, at its Desc.Cycles. A block runs
// whole unless it traps, so over runs that end without a trap the census
// plus the taken branches (recordRunEnd) is Stats.Cycles exactly. The
// block is decoded again here, from the code it was built from
// (invalidation flushes a block before its code is patched), so that
// building and running blocks do no census work.
func (mc *Machine) census(b *block) {
	view := mc.code[:mc.codeEnd-mc.codeBase]
	var in target.MInstr
	for at := b.entry; at < b.end; {
		n, err := mc.desc.DecodeFrom(view, int(at-mc.codeBase), &in)
		if err != nil {
			return
		}
		mc.prof.AddCensus(in.OpName(), b.hits, b.hits*mc.desc.Cycles(&in))
		at += uint64(n)
	}
}

// virtualStack renders the shadow call stack as function names,
// root-first, with leafPC's function appended as the leaf frame.
// Unattributable frames become "?" so the stack shape survives. The
// slice is the machine's scratch, valid until the next call: a sample is
// taken every few thousand instructions and must not be garbage.
func (mc *Machine) virtualStack(leafPC uint64) []string {
	stack := mc.sampleStack[:0]
	for _, ret := range mc.callStack {
		if n, _, found := mc.funcAt(ret); found {
			stack = append(stack, n)
		} else {
			stack = append(stack, "?")
		}
	}
	leaf, _, found := mc.funcAt(leafPC)
	if !found {
		leaf = "?"
	}
	stack = append(stack, leaf)
	mc.sampleStack = stack
	return stack
}

// takeSample records one virtual-PC sample at a block boundary. The
// next trigger is re-armed relative to the current instruction count,
// so a long block never causes a burst of catch-up samples.
func (mc *Machine) takeSample() {
	mc.profNext = mc.Stats.Instrs + mc.prof.Rate()
	if mc.pc == mc.haltAddr {
		return
	}
	stack := mc.virtualStack(mc.pc)
	if len(stack) == 1 && stack[0] == "?" {
		return
	}
	mc.prof.AddSample(stack)
}

// buildCrashReport snapshots the machine for the flight recorder after
// an unhandled trap.
func (mc *Machine) buildCrashReport(te *TrapError) *prof.CrashReport {
	c := &prof.CrashReport{
		Target:   mc.desc.Name,
		TrapNum:  te.Num,
		PC:       te.PC,
		Detail:   te.Detail,
		Mnemonic: te.Mnemonic,
		Instrs:   mc.Stats.Instrs,
		Cycles:   mc.Stats.Cycles,
	}
	if n, lo, found := mc.funcAt(te.PC); found {
		c.Func, c.FuncBase = n, lo
	}

	// Registers: non-zero only, with the ABI roles named.
	for r := 0; r < unifiedRegs; r++ {
		v := mc.regs[r]
		if v == 0 {
			continue
		}
		name := target.Reg(r).String()
		switch target.Reg(r) {
		case mc.desc.SP:
			name += "(sp)"
		case mc.desc.FP:
			name += "(fp)"
		}
		c.Regs = append(c.Regs, prof.RegVal{Name: name, Val: v})
	}

	// Virtual backtrace: caller frames carry their return addresses,
	// the leaf frame the faulting PC.
	if mc.trackCalls {
		for _, ret := range mc.callStack {
			f := prof.Frame{Func: "?", PC: ret}
			if n, _, found := mc.funcAt(ret); found {
				f.Func = n
			}
			c.Backtrace = append(c.Backtrace, f)
		}
		leaf := prof.Frame{Func: c.Func, PC: te.PC}
		if leaf.Func == "" {
			leaf.Func = "?"
		}
		c.Backtrace = append(c.Backtrace, leaf)
	}

	c.Disasm = mc.disasmWindow(te.PC, 8, 4)

	if mc.tele != nil && mc.crashEvents > 0 {
		evs := mc.tele.Events().Snapshot()
		if len(evs) > mc.crashEvents {
			evs = evs[len(evs)-mc.crashEvents:]
		}
		c.Events = evs
	}
	return c
}

// disasmWindow decodes up to before instructions preceding pc and
// after following it (plus the faulting instruction itself), starting
// from the containing function's entry so variable-length decoding
// stays on instruction boundaries. Without a containing function it
// decodes forward from pc only.
func (mc *Machine) disasmWindow(pc uint64, before, after int) []prof.DisasmLine {
	if mc.codeEnd <= mc.codeBase {
		return nil
	}
	start := pc
	if _, lo, found := mc.funcAt(pc); found && lo >= mc.codeBase {
		start = lo
	}
	if start < mc.codeBase || start >= mc.codeEnd {
		return nil
	}
	view := mc.code[:mc.codeEnd-mc.codeBase]
	var lines []prof.DisasmLine
	faultIdx := -1
	at := start
	for at < mc.codeEnd {
		var in target.MInstr
		n, err := mc.desc.DecodeFrom(view, int(at-mc.codeBase), &in)
		if err != nil {
			break
		}
		lines = append(lines, prof.DisasmLine{PC: at, Text: in.String(), Fault: at == pc})
		if at == pc {
			faultIdx = len(lines) - 1
		}
		at += uint64(n)
		if faultIdx >= 0 && len(lines) >= faultIdx+1+after {
			break
		}
		// Safety: an unattributed window shouldn't crawl the whole
		// code segment looking for a fault PC it will never hit.
		if faultIdx < 0 && len(lines) > 4096 {
			break
		}
	}
	if faultIdx < 0 {
		// pc was not on a decode boundary of this window (corrupt code
		// or unknown function): fall back to a forward-only window.
		if start == pc {
			return lines
		}
		return mc.disasmWindowFrom(pc, after)
	}
	lo := faultIdx - before
	if lo < 0 {
		lo = 0
	}
	return lines[lo:]
}

// disasmWindowFrom decodes forward from pc only (no function context).
func (mc *Machine) disasmWindowFrom(pc uint64, count int) []prof.DisasmLine {
	if pc < mc.codeBase || pc >= mc.codeEnd {
		return nil
	}
	view := mc.code[:mc.codeEnd-mc.codeBase]
	var lines []prof.DisasmLine
	at := pc
	for at < mc.codeEnd && len(lines) <= count {
		var in target.MInstr
		n, err := mc.desc.DecodeFrom(view, int(at-mc.codeBase), &in)
		if err != nil {
			break
		}
		lines = append(lines, prof.DisasmLine{PC: at, Text: in.String(), Fault: at == pc})
		at += uint64(n)
	}
	return lines
}
