package prof

import (
	"fmt"
	"io"
	"time"

	"llva/internal/telemetry"
)

// The trap-time flight recorder's output: when a run dies on an
// unhandled trap, the machine snapshots everything a post-mortem needs
// — the register file, the virtual backtrace, a disassembly window
// around the faulting PC, and the tail of the telemetry event ring —
// into a CrashReport. The snapshot is built only on the trap path, so
// it costs nothing in steady state.

// RegVal is one named register and its value at trap time.
type RegVal struct {
	Name string `json:"name"`
	Val  uint64 `json:"val"`
}

// Frame is one virtual call-stack frame, outermost first.
type Frame struct {
	Func string `json:"func"` // "?" when the PC maps to no known function
	PC   uint64 `json:"pc"`   // faulting PC (leaf) or return address (callers)
}

// DisasmLine is one decoded instruction of the fault window.
type DisasmLine struct {
	PC    uint64 `json:"pc"`
	Text  string `json:"text"`
	Fault bool   `json:"fault"` // this is the faulting instruction
}

// CrashReport is the machine state snapshot taken when a run ends in an
// unhandled trap.
type CrashReport struct {
	Target   string `json:"target"`
	TrapNum  uint64 `json:"trap"`
	PC       uint64 `json:"pc"`
	Detail   string `json:"detail"`
	Mnemonic string `json:"mnemonic,omitempty"`
	Func     string `json:"func,omitempty"`      // function containing the faulting PC
	FuncBase uint64 `json:"func_base,omitempty"` // code address of Func

	Instrs uint64 `json:"instrs"` // retired virtual instructions at trap time
	Cycles uint64 `json:"cycles"` // simulated cycles at trap time

	Regs      []RegVal          `json:"regs"`
	Backtrace []Frame           `json:"backtrace"`
	Disasm    []DisasmLine      `json:"disasm"`
	Events    []telemetry.Event `json:"events,omitempty"` // ring tail, oldest first
}

// Render writes the report as readable text (the llva-run crash dump).
func (c *CrashReport) Render(w io.Writer) error {
	where := fmt.Sprintf("pc=0x%x", c.PC)
	if c.Func != "" {
		where = fmt.Sprintf("%%%s+0x%x (pc=0x%x)", c.Func, c.funcOff(), c.PC)
	}
	if _, err := fmt.Fprintf(w, "==== virtual machine crash report ====\n"+
		"trap %d at %s on %s: %s\n", c.TrapNum, where, c.Target, c.Detail); err != nil {
		return err
	}
	if c.Mnemonic != "" {
		fmt.Fprintf(w, "faulting instruction: %s\n", c.Mnemonic)
	}
	fmt.Fprintf(w, "retired: %d instructions, %d cycles\n", c.Instrs, c.Cycles)

	fmt.Fprintf(w, "\nvirtual backtrace (outermost first):\n")
	if len(c.Backtrace) == 0 {
		fmt.Fprintf(w, "  (no frames recorded — call tracking was off)\n")
	}
	for i, f := range c.Backtrace {
		marker := "called from"
		if i == len(c.Backtrace)-1 {
			marker = "faulted in"
		}
		fmt.Fprintf(w, "  #%d %-11s %%%-20s pc=0x%x\n", i, marker, f.Func, f.PC)
	}

	fmt.Fprintf(w, "\nregisters (non-zero):\n")
	col := 0
	for _, r := range c.Regs {
		fmt.Fprintf(w, "  %-4s= 0x%-16x", r.Name, r.Val)
		if col++; col%3 == 0 {
			fmt.Fprintln(w)
		}
	}
	if col%3 != 0 {
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\ndisassembly around the fault:\n")
	for _, d := range c.Disasm {
		mark := "   "
		if d.Fault {
			mark = "=> "
		}
		fmt.Fprintf(w, "  %s0x%08x  %s\n", mark, d.PC, d.Text)
	}

	if len(c.Events) > 0 {
		fmt.Fprintf(w, "\nlast %d engine events:\n", len(c.Events))
		for _, e := range c.Events {
			at := time.Unix(0, e.Time).UTC().Format("15:04:05.000000")
			fmt.Fprintf(w, "  %s  %-14s %s", at, e.Kind, e.Name)
			if e.Value != 0 {
				fmt.Fprintf(w, " (%d)", e.Value)
			}
			if e.Dur > 0 { // a span: Time is its start
				fmt.Fprintf(w, " [%v]", time.Duration(e.Dur))
			}
			fmt.Fprintln(w)
		}
	}
	_, err := fmt.Fprintf(w, "==== end crash report ====\n")
	return err
}

// funcOff is the faulting PC's offset into its function; 0 when the
// function base is unknown (FuncBase unset).
func (c *CrashReport) funcOff() uint64 {
	if c.FuncBase == 0 || c.PC < c.FuncBase {
		return 0
	}
	return c.PC - c.FuncBase
}
