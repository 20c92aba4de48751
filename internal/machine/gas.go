package machine

import (
	"errors"
	"fmt"
)

// Gas metering: a run may carry a budget of simulated cycles ("gas" —
// the multi-tenant serving layer's unit of account, after gno's
// Machine.MaxCycles). Exhaustion is detected at basic-block boundaries
// only, exactly like context cancellation, so the PR 3 hot loop gains a
// single integer compare per block and the machine state at the stop is
// consistent: the block that crossed the budget ran to completion,
// every retired instruction is accounted, and the virtual clock is
// exact. The trigger is purely the deterministic virtual clock — never
// wall time — so the same program with the same budget exhausts at the
// same virtual cycle on every run.

// ErrOutOfGas reports that RunContext stopped because the run's cycle
// budget was exhausted. The concrete error is always a *GasError.
var ErrOutOfGas = errors.New("machine: out of gas")

// GasError is returned when a gas budget stops execution. Used is the
// exact number of simulated cycles the run consumed when it stopped; it
// can overshoot Budget by at most the length of the block that crossed
// it (blocks are capped at maxBlockInstrs instructions), because blocks
// are atomic with respect to metering.
type GasError struct {
	PC     uint64 // the next program counter at the boundary
	Budget uint64 // the budget the run started with
	Used   uint64 // simulated cycles consumed by the run when it stopped
}

func (e *GasError) Error() string {
	return fmt.Sprintf("machine: out of gas at pc=0x%x: used %d of %d budgeted cycles",
		e.PC, e.Used, e.Budget)
}

// Unwrap makes the error match ErrOutOfGas under errors.Is.
func (e *GasError) Unwrap() error { return ErrOutOfGas }

// ErrInstrLimit reports that RunContext stopped because the run retired
// more than MaxInstrs instructions, the bound every run carries whether
// or not it is metered. The concrete error is always a *LimitError.
var ErrInstrLimit = errors.New("machine: instruction limit exceeded")

// LimitError is returned when the instruction limit stops execution, at
// a block boundary like gas: the run may overshoot Limit by at most the
// length of the block that crossed it.
type LimitError struct {
	PC    uint64 // the next program counter at the boundary
	Limit uint64 // the run's instruction limit
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("machine: instruction limit exceeded at pc=0x%x (%d)", e.PC, e.Limit)
}

// Unwrap makes the error match ErrInstrLimit under errors.Is.
func (e *LimitError) Unwrap() error { return ErrInstrLimit }

// SetGas sets the cycle budget of subsequent runs (0: unmetered). The
// budget is per run, not cumulative: each RunContext starts a fresh
// allowance of the configured size.
func (mc *Machine) SetGas(budget uint64) { mc.gasBudget = budget }

// Gas returns the configured per-run cycle budget (0: unmetered).
func (mc *Machine) Gas() uint64 { return mc.gasBudget }

// GasUsed returns the cycles consumed since the current (or last) run
// armed the meter. Meaningful only when a budget is set.
func (mc *Machine) GasUsed() uint64 { return mc.Stats.Cycles - mc.gasStart }

// armGas installs the absolute virtual-clock value at which the current
// run exhausts. An unmetered run gets the maximum clock value, which the
// simulated processor cannot reach (MaxInstrs bounds it long before), so
// the per-block check is one always-false compare — no extra branch for
// the common unmetered case.
func (mc *Machine) armGas() {
	mc.gasStart = mc.Stats.Cycles
	mc.gasStop = ^uint64(0)
	if mc.gasBudget != 0 {
		mc.gasStop = mc.Stats.Cycles + mc.gasBudget
	}
}
