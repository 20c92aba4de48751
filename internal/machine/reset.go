package machine

import (
	"fmt"

	"llva/internal/mem"
)

// Seal snapshots the machine's post-setup state as the pristine image a
// later Reset returns to. Call it after LoadObject and before the first
// run: the sealed segment covers the static data image and every
// installed code byte, and arming memory's dirty-page tracking from here
// makes Reset cost proportional to what each run actually touches. A
// machine that installs or patches code after Seal (a function the
// object lacked is translated on demand, or llva.smc.replace invalidates
// one) must not be reset: the execution manager seals only machines
// loaded with the whole module, and drops one that self-modified.
func (mc *Machine) Seal() error {
	base := mc.dataImage.Base
	view, err := mc.mem.Bytes(base, mc.codeEnd-base)
	if err != nil {
		return fmt.Errorf("machine: seal: %w", err)
	}
	mc.mem.Seal(mem.Segment{Base: base, Bytes: view})
	return nil
}

// Reset returns a sealed machine to its pristine pre-first-run state so
// the next Run is bit-identical to a fresh machine's: memory restored
// via dirty-page tracking, the register file, flags, shadow stacks and
// privilege level cleared, and the execution counters and block entry
// counts zeroed (the counters flushed to telemetry first, so no deltas
// are lost; a run hands its entry counts to the profiler when it ends,
// so only a run cut short leaves any). Everything immutable and
// expensive stays: installed code, the predecoded block cache and its
// arenas, symbol bindings, stubs and the extern table. It returns the
// number of dirty pages restored. Must not be called mid-run.
func (mc *Machine) Reset() int {
	mc.flushTelemetry()
	n := mc.mem.Reset()
	mc.regs = [regSlots]uint64{}
	mc.pc = 0
	mc.flags = 0
	mc.pendCycles = 0
	mc.invokeStack = mc.invokeStack[:0]
	mc.callStack = mc.callStack[:0]
	mc.privileged = true
	mc.lastCrash = nil
	mc.profNext = 0
	if mc.prof != nil {
		for _, b := range mc.blocks {
			b.hits = 0
		}
	}
	mc.Stats = ExecStats{}
	mc.teleFlushed = ExecStats{}
	return n
}
