package machine

import (
	"errors"

	"llva/internal/prof"
	"llva/internal/telemetry"
)

// ExecStats accumulates the simulated processor's execution counters.
// The hot loop updates the plain fields (one machine per goroutine);
// Run flushes them into the attached telemetry registry afterwards so
// instrumentation costs nothing per instruction.
type ExecStats struct {
	Instrs, Cycles uint64
	Calls          uint64
	ExternCalls    uint64
	JITRequests    uint64
	ICacheFills    uint64
	Branches       uint64
	BranchesTaken  uint64
	Traps          uint64

	// Block-engine counters (block.go): blocks predecoded, block
	// transitions that followed a cached chain pointer (map-free), and
	// blocks evicted by SMC/code-install invalidation.
	BlockBuilds        uint64
	BlockChains        uint64
	BlockInvalidations uint64

	// Replacements counts InstallCode calls that superseded an earlier
	// installation of the same function (SMC replacement).
	Replacements uint64
}

// SetTelemetry attaches a metric registry. After every Run the machine
// flushes its counter deltas into the machine.* counter families and
// emits a TrapTaken event when execution ended in an unhandled trap.
func (mc *Machine) SetTelemetry(reg *telemetry.Registry) { mc.tele = reg }

// Telemetry returns the attached registry (nil when none).
func (mc *Machine) Telemetry() *telemetry.Registry { return mc.tele }

// recordRunEnd accounts a finished Run: trap classification plus the
// counter flush, and the block entry counts, the census and the run's
// taken branches handed to the profiler.
func (mc *Machine) recordRunEnd(err error) {
	if mc.prof != nil {
		for _, b := range mc.blocks {
			mc.flushHits(b)
		}
		mc.prof.AddCensus(prof.TakenBranch, 0, mc.Stats.BranchesTaken-mc.profTaken)
	}
	var te *TrapError
	if errors.As(err, &te) {
		mc.Stats.Traps++
		if mc.tele != nil {
			mc.tele.Events().Emit(telemetry.Event{Kind: telemetry.EvTrapTaken, Name: te.Detail, Value: int64(te.Num)})
		}
		// The flight recorder snapshots the dying machine after the
		// trap event lands in the ring, so the report's event tail
		// includes the trap itself.
		if mc.recordCrash {
			mc.lastCrash = mc.buildCrashReport(te)
		}
	}
	mc.flushTelemetry()
}

func (mc *Machine) flushTelemetry() {
	if mc.tele == nil {
		return
	}
	cur, last := mc.Stats, mc.teleFlushed
	add := func(name string, c, l uint64) {
		if c > l {
			mc.tele.Counter(name).Add(c - l)
		}
	}
	add("machine.instrs", cur.Instrs, last.Instrs)
	add("machine.cycles", cur.Cycles, last.Cycles)
	add("machine.branches", cur.Branches, last.Branches)
	add("machine.branches_taken", cur.BranchesTaken, last.BranchesTaken)
	add("machine.calls", cur.Calls, last.Calls)
	add("machine.extern_calls", cur.ExternCalls, last.ExternCalls)
	add("machine.jit_requests", cur.JITRequests, last.JITRequests)
	add("machine.icache_fills", cur.ICacheFills, last.ICacheFills)
	add("machine.traps", cur.Traps, last.Traps)
	add("machine.block_builds", cur.BlockBuilds, last.BlockBuilds)
	add("machine.block_chains", cur.BlockChains, last.BlockChains)
	add("machine.block_invalidate", cur.BlockInvalidations, last.BlockInvalidations)
	add("machine.code_replacements", cur.Replacements, last.Replacements)
	mc.teleFlushed = cur
}
