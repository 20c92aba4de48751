// Package target describes the simulated I-ISAs the LLVA translator
// compiles to (paper, Figure 1): a machine-level IR over two register
// files, two concrete targets mirroring the paper's back-ends, and a
// byte encoding with load-time relocations.
//
//   - vx86: CISC-flavoured — stack-passed arguments, a flags register,
//     memory operands, 32-bit ALU and compare immediates and
//     displacements, 64-bit constant moves, and a 16-register file split
//     between caller-saved and callee-saved registers.
//   - vsparc: RISC-flavoured — register arguments, compare-into-register,
//     SPARC V9's signed 13-bit immediates and displacements, wider
//     constants synthesized from 16-bit chunks (sethi/or style), and a
//     large callee-saved allocatable file.
//
// Both are served by the same linear-scan register allocator. Each
// target's operand ranges live in its Desc (MaxImm, MaxDisp). Both
// simulate 64-bit little-endian processors; WordSize distinguishes the
// constant-synthesis granularity (8 = x86-style imm64, 4 = SPARC-style
// 16-bit chunks), not the data width.
package target

import "fmt"

// Reg names one register: integer physical registers occupy [0, 64),
// floating-point physical registers [FPBase, FPBase+64), and virtual
// registers (pre-allocation) start at VRegBase. NoReg marks an absent
// operand.
type Reg uint16

const (
	// FPBase is the first floating-point physical register.
	FPBase Reg = 64
	// VRegBase is the first virtual register number handed out by the
	// instruction selector.
	VRegBase Reg = 256
	// NoReg is the absent-operand sentinel.
	NoReg Reg = 0xFFFF
	// VSZero is vsparc's hardwired-zero register (r0).
	VSZero Reg = 0
)

// IsVirtual reports whether r is a virtual (pre-allocation) register.
func (r Reg) IsVirtual() bool { return r >= VRegBase && r != NoReg }

// IsFP reports whether r is a physical floating-point register.
func (r Reg) IsFP() bool { return r >= FPBase && r < FPBase+64 }

// String renders a register for diagnostics.
func (r Reg) String() string {
	switch {
	case r == NoReg:
		return "-"
	case r.IsVirtual():
		return fmt.Sprintf("v%d", uint16(r-VRegBase))
	case r.IsFP():
		return fmt.Sprintf("f%d", uint16(r-FPBase))
	default:
		return fmt.Sprintf("r%d", uint16(r))
	}
}
