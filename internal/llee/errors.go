package llee

import (
	"errors"
	"fmt"

	"llva/internal/machine"
	"llva/internal/rt"
)

// Typed error taxonomy of the session API. Every failure surfaced by
// System.NewSession and Session.Run classifies under exactly one of
// these with errors.Is/errors.As, uniformly across the llee and machine
// layers:
//
//	ErrCanceled   the run's context was canceled or its deadline passed
//	ErrOutOfGas   the run exhausted its WithGas cycle budget
//	ErrInstrLimit the run passed the machine's instruction limit
//	ErrTranslate  the translator rejected a function (JIT or offline)
//	ErrBadModule  the module, target, or requested entry is unusable
//	ErrExit       the program called exit() — an outcome, not a failure
//	*ErrTrap      execution ended in an unhandled machine trap
//
// The sentinels for conditions detected below llee are re-exported from
// the layer that owns them (llee imports machine and rt, never the
// reverse), so errors.Is works against either package's name.
var (
	// ErrCanceled is machine.ErrCanceled: Session.Run stopped at a block
	// boundary because its context was done. The chain also matches the
	// context's own error (context.Canceled or context.DeadlineExceeded).
	ErrCanceled = machine.ErrCanceled
	// ErrOutOfGas is machine.ErrOutOfGas: Session.Run stopped at a block
	// boundary because its WithGas cycle budget was exhausted. Use
	// errors.As with *machine.GasError to read the exact cycles consumed
	// and the budget the run started with.
	ErrOutOfGas = machine.ErrOutOfGas
	// ErrInstrLimit is machine.ErrInstrLimit: Session.Run stopped at a
	// block boundary because the run passed the machine's instruction
	// limit. Use errors.As with *machine.LimitError to read the limit.
	ErrInstrLimit = machine.ErrInstrLimit
	// ErrTranslate marks a failed translation, at a function's first call
	// or ahead of execution; the error names the function.
	ErrTranslate = errors.New("llee: translation failed")
	// ErrExit is rt.ErrExit: the program called exit(). Use errors.As
	// with *rt.ExitError to read the exit code.
	ErrExit = rt.ErrExit
	// ErrBadModule reports an unusable module: it fails to encode, the
	// target rejects it, or a requested entry function does not exist.
	ErrBadModule = errors.New("llee: bad module")
)

// ErrTrap reports that a run ended in an unhandled machine trap. It
// wraps the underlying *machine.TrapError, so errors.As reaches the
// machine-level detail and trap constants.
type ErrTrap struct {
	Num   uint64 // trap number (machine.TrapMemoryFault, ...)
	PC    uint64 // faulting program counter
	Cause error  // the underlying *machine.TrapError
}

func (e *ErrTrap) Error() string {
	return fmt.Sprintf("llee: trap %d at pc=0x%x: %v", e.Num, e.PC, e.Cause)
}

func (e *ErrTrap) Unwrap() error { return e.Cause }
