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

// DefaultGas is the cycle budget of a run that sets none: the one bound
// every run carries, so an unmetered `while(1);` ends in a *GasError
// like a metered one. The suite's longest vx86 run (crafty, 107 M
// cycles) stays 37 times below it.
const DefaultGas = 4_000_000_000

// SetGas sets the cycle budget of subsequent runs (0: DefaultGas). The
// budget is per run, not cumulative: each RunContext starts a fresh
// allowance of the configured size.
func (mc *Machine) SetGas(budget uint64) { mc.gasBudget = budget }

// Gas returns the configured per-run cycle budget (0: DefaultGas).
func (mc *Machine) Gas() uint64 { return mc.gasBudget }

// GasUsed returns the cycles consumed since the current (or last) run
// armed the meter. Meaningful only when a budget is set.
func (mc *Machine) GasUsed() uint64 { return mc.Stats.Cycles - mc.gasStart }

// armGas installs the absolute virtual-clock value at which the current
// run exhausts: its own budget, or DefaultGas when it set none.
func (mc *Machine) armGas() {
	budget := mc.gasBudget
	if budget == 0 {
		budget = DefaultGas
	}
	mc.gasStart = mc.Stats.Cycles
	mc.gasStop = mc.Stats.Cycles + budget
}
