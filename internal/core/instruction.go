package core

import (
	"fmt"
	"strings"
)

// Opcode identifies one of the 28 LLVA instructions (paper, Table 1).
type Opcode uint8

// The entire LLVA instruction set: 5 arithmetic, 5 bitwise, 6 comparison,
// 5 control-flow, 4 memory, and 3 other instructions.
const (
	// arithmetic
	OpAdd Opcode = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	// bitwise
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	// comparison
	OpSetEQ
	OpSetNE
	OpSetLT
	OpSetGT
	OpSetLE
	OpSetGE
	// control flow
	OpRet
	OpBr
	OpMbr
	OpInvoke
	OpUnwind
	// memory
	OpLoad
	OpStore
	OpGetElementPtr
	OpAlloca
	// other
	OpCast
	OpCall
	OpPhi

	NumOpcodes = int(OpPhi) + 1
)

var opNames = [...]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpSetEQ: "seteq", OpSetNE: "setne", OpSetLT: "setlt", OpSetGT: "setgt",
	OpSetLE: "setle", OpSetGE: "setge",
	OpRet: "ret", OpBr: "br", OpMbr: "mbr", OpInvoke: "invoke", OpUnwind: "unwind",
	OpLoad: "load", OpStore: "store", OpGetElementPtr: "getelementptr",
	OpAlloca: "alloca",
	OpCast:   "cast", OpCall: "call", OpPhi: "phi",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// OpcodeByName maps an assembly mnemonic back to its opcode.
var OpcodeByName = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for i, n := range opNames {
		m[n] = Opcode(i)
	}
	return m
}()

// IsTerminator reports whether the opcode ends a basic block.
func (o Opcode) IsTerminator() bool {
	switch o {
	case OpRet, OpBr, OpMbr, OpInvoke, OpUnwind:
		return true
	}
	return false
}

// IsBinary reports whether the opcode is a two-operand arithmetic, bitwise
// or comparison operation.
func (o Opcode) IsBinary() bool { return o <= OpSetGE }

// IsComparison reports whether the opcode is one of the six set* opcodes.
func (o Opcode) IsComparison() bool { return o >= OpSetEQ && o <= OpSetGE }

// DefaultExceptionsEnabled returns the paper's default for the
// ExceptionsEnabled attribute: true for load, store and div; false for all
// other operations (Section 3.3). Rem shares div's trapping behaviour on
// hardware but the paper names only div; we follow the paper exactly.
func (o Opcode) DefaultExceptionsEnabled() bool {
	switch o {
	case OpLoad, OpStore, OpDiv:
		return true
	}
	return false
}

// Instruction is a single LLVA instruction. The result (if the type is
// non-void) is itself the SSA Value defined by the instruction.
//
// Operand/block layout by opcode:
//
//	binary ops:    ops[0], ops[1]
//	ret:           ops[] empty (ret void) or ops[0] = value
//	br:            unconditional: blocks[0]; conditional: ops[0]=bool,
//	               blocks[0]=true target, blocks[1]=false target
//	mbr:           ops[0]=index value, blocks[0]=default,
//	               Cases[i] -> blocks[i+1]
//	invoke:        ops[0]=callee, ops[1:]=args, blocks[0]=normal,
//	               blocks[1]=unwind
//	unwind:        none
//	load:          ops[0]=pointer
//	store:         ops[0]=value, ops[1]=pointer
//	getelementptr: ops[0]=pointer, ops[1:]=indices
//	alloca:        ops[] empty or ops[0]=count (uint); Allocated holds the
//	               element type
//	cast:          ops[0]=value; result type is the destination
//	call:          ops[0]=callee (pointer to function), ops[1:]=args
//	phi:           ops[i] paired with blocks[i] (incoming value per pred)
type Instruction struct {
	useList
	op     Opcode
	num    int32 // function-local number (Num), in op's padding
	ty     *Type
	name   string
	ops    []Value
	blocks []*BasicBlock
	parent *BasicBlock

	// Cases holds the mbr case values, parallel to blocks[1:].
	Cases []int64
	// Allocated is the element type allocated by an alloca.
	Allocated *Type
	// ExceptionsEnabled is the paper's per-instruction static exception
	// attribute: when false, exceptions raised by this instruction are
	// ignored rather than delivered (Section 3.3).
	ExceptionsEnabled bool
}

// NewInstruction creates a detached instruction. Most callers should use
// Builder instead, which validates operand types and appends to a block.
func NewInstruction(op Opcode, ty *Type, operands ...Value) *Instruction {
	in := &Instruction{op: op, ty: ty, ExceptionsEnabled: op.DefaultExceptionsEnabled()}
	if len(operands) > 0 {
		in.ops = make([]Value, 0, len(operands))
	}
	for _, v := range operands {
		in.AddOperand(v)
	}
	return in
}

// Num returns the instruction's number: unique among the instructions
// of its function and below the function's InstrSlots. It is assigned
// when the instruction is attached to a block of the function, so a
// detached instruction's number means nothing.
func (in *Instruction) Num() int { return int(in.num) }

// Op returns the instruction's opcode.
func (in *Instruction) Op() Opcode { return in.op }

// Type returns the instruction result type (void for non-producing ops).
func (in *Instruction) Type() *Type { return in.ty }

// Name returns the result register name.
func (in *Instruction) Name() string { return in.name }

// SetName sets the result register name.
func (in *Instruction) SetName(n string) { in.name = n }

// Ident renders the instruction result as an operand.
func (in *Instruction) Ident() string { return "%" + in.name }

// Parent returns the containing basic block (nil if detached).
func (in *Instruction) Parent() *BasicBlock { return in.parent }

// NumOperands returns the operand count.
func (in *Instruction) NumOperands() int { return len(in.ops) }

// Operand returns the i'th operand.
func (in *Instruction) Operand(i int) Value { return in.ops[i] }

// Operands returns the operand slice; callers must not append to it.
func (in *Instruction) Operands() []Value { return in.ops }

// SetOperand replaces operand i, maintaining def-use chains.
func (in *Instruction) SetOperand(i int, v Value) {
	if old := in.ops[i]; old != nil {
		untrackUse(old, Use{User: in, Index: i})
	}
	in.ops[i] = v
	if v != nil {
		trackUse(v, Use{User: in, Index: i})
	}
}

// AddOperand appends an operand, maintaining def-use chains.
func (in *Instruction) AddOperand(v Value) {
	in.ops = append(in.ops, nil)
	in.SetOperand(len(in.ops)-1, v)
}

// dropOperands detaches all operand uses (used when erasing).
func (in *Instruction) dropOperands() {
	for i, v := range in.ops {
		if v != nil {
			untrackUse(v, Use{User: in, Index: i})
			in.ops[i] = nil
		}
	}
	in.ops = in.ops[:0]
}

// NumBlocks returns the number of attached block references (successors for
// terminators, incoming blocks for phis).
func (in *Instruction) NumBlocks() int { return len(in.blocks) }

// Block returns the i'th attached block.
func (in *Instruction) Block(i int) *BasicBlock { return in.blocks[i] }

// Blocks returns the attached block slice; callers must not append to it.
func (in *Instruction) Blocks() []*BasicBlock { return in.blocks }

// SetBlock replaces attached block i.
func (in *Instruction) SetBlock(i int, bb *BasicBlock) { in.blocks[i] = bb }

// AddBlock appends an attached block.
func (in *Instruction) AddBlock(bb *BasicBlock) { in.blocks = append(in.blocks, bb) }

// IsTerminator reports whether the instruction ends its block.
func (in *Instruction) IsTerminator() bool { return in.op.IsTerminator() }

// Successors returns the control-flow successors of a terminator (empty for
// ret and unwind).
func (in *Instruction) Successors() []*BasicBlock {
	if !in.IsTerminator() {
		return nil
	}
	return in.blocks
}

// PhiIncoming returns the i'th (value, predecessor) pair of a phi.
func (in *Instruction) PhiIncoming(i int) (Value, *BasicBlock) {
	return in.ops[i], in.blocks[i]
}

// AddPhiIncoming appends an incoming (value, predecessor) pair to a phi.
func (in *Instruction) AddPhiIncoming(v Value, bb *BasicBlock) {
	if in.op != OpPhi {
		panic("core: AddPhiIncoming on non-phi")
	}
	in.AddOperand(v)
	in.AddBlock(bb)
}

// RemovePhiIncoming deletes the i'th incoming pair of a phi.
func (in *Instruction) RemovePhiIncoming(i int) {
	if in.op != OpPhi {
		panic("core: RemovePhiIncoming on non-phi")
	}
	// Shift operands down, re-registering moved uses at their new index.
	n := len(in.ops)
	untrackUse(in.ops[i], Use{User: in, Index: i})
	for j := i; j < n-1; j++ {
		v := in.ops[j+1]
		untrackUse(v, Use{User: in, Index: j + 1})
		in.ops[j] = v
		trackUse(v, Use{User: in, Index: j})
		in.blocks[j] = in.blocks[j+1]
	}
	in.ops = in.ops[:n-1]
	in.blocks = in.blocks[:n-1]
}

// PhiIncomingFor returns the incoming value of a phi for predecessor bb,
// or nil if bb is not an incoming block.
func (in *Instruction) PhiIncomingFor(bb *BasicBlock) Value {
	for i, b := range in.blocks {
		if b == bb {
			return in.ops[i]
		}
	}
	return nil
}

// Callee returns the called value of a call or invoke instruction.
func (in *Instruction) Callee() Value { return in.ops[0] }

// CallArgs returns the argument operands of a call or invoke.
func (in *Instruction) CallArgs() []Value { return in.ops[1:] }

// CalledFunction returns the statically-known callee Function of a call or
// invoke, or nil for indirect calls.
func (in *Instruction) CalledFunction() *Function {
	f, _ := in.ops[0].(*Function)
	return f
}

// HasResult reports whether the instruction defines an SSA value.
func (in *Instruction) HasResult() bool {
	return in.ty != nil && in.ty.Kind() != VoidKind
}

// removeFromBlock unlinks the instruction from its parent block.
func (in *Instruction) removeFromBlock() {
	bb := in.parent
	if bb == nil {
		return
	}
	for i, x := range bb.instrs {
		if x == in {
			bb.instrs = append(bb.instrs[:i], bb.instrs[i+1:]...)
			break
		}
	}
	in.parent = nil
}

// MoveTo unlinks the instruction from its current block and appends it to
// bb, preserving operands and uses. Within one function it keeps its
// number; moved to another function, it takes a new one there.
func (in *Instruction) MoveTo(bb *BasicBlock) {
	if in.parent != nil && in.parent.parent == bb.parent {
		in.removeFromBlock()
		in.parent = bb
		bb.instrs = append(bb.instrs, in)
		return
	}
	in.removeFromBlock()
	bb.Append(in)
}

// EraseFromParent unlinks the instruction and drops its operand uses. The
// instruction must itself be unused.
func (in *Instruction) EraseFromParent() {
	if len(in.uses) != 0 {
		panic("core: erasing instruction that still has uses: " + in.String())
	}
	in.removeFromBlock()
	in.dropOperands()
	in.blocks = nil
}

// String renders the instruction in LLVA assembly syntax.
func (in *Instruction) String() string {
	var b strings.Builder
	in.write(&b)
	return b.String()
}

func operandStr(v Value) string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s %s", v.Type(), v.Ident())
}

func (in *Instruction) write(b *strings.Builder) {
	if in.HasResult() {
		fmt.Fprintf(b, "%%%s = ", in.name)
	}
	b.WriteString(in.op.String())
	switch in.op {
	case OpRet:
		if len(in.ops) == 0 {
			b.WriteString(" void")
		} else {
			b.WriteByte(' ')
			b.WriteString(operandStr(in.ops[0]))
		}
	case OpBr:
		if len(in.blocks) == 1 {
			fmt.Fprintf(b, " label %%%s", in.blocks[0].name)
		} else {
			fmt.Fprintf(b, " %s, label %%%s, label %%%s",
				operandStr(in.ops[0]), in.blocks[0].name, in.blocks[1].name)
		}
	case OpMbr:
		fmt.Fprintf(b, " %s, label %%%s [", operandStr(in.ops[0]), in.blocks[0].name)
		for i, c := range in.Cases {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, " %s %d, label %%%s", in.ops[0].Type(), c, in.blocks[i+1].name)
		}
		b.WriteString(" ]")
	case OpInvoke, OpCall:
		fmt.Fprintf(b, " %s %s(", in.ty, in.ops[0].Ident())
		for i, a := range in.ops[1:] {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(operandStr(a))
		}
		b.WriteByte(')')
		if in.op == OpInvoke {
			fmt.Fprintf(b, " to label %%%s unwind label %%%s",
				in.blocks[0].name, in.blocks[1].name)
		}
	case OpUnwind:
		// no operands
	case OpLoad:
		fmt.Fprintf(b, " %s", operandStr(in.ops[0]))
	case OpStore:
		fmt.Fprintf(b, " %s, %s", operandStr(in.ops[0]), operandStr(in.ops[1]))
	case OpGetElementPtr:
		b.WriteByte(' ')
		b.WriteString(operandStr(in.ops[0]))
		for _, idx := range in.ops[1:] {
			b.WriteString(", ")
			b.WriteString(operandStr(idx))
		}
	case OpAlloca:
		fmt.Fprintf(b, " %s", in.Allocated)
		if len(in.ops) == 1 {
			fmt.Fprintf(b, ", %s", operandStr(in.ops[0]))
		}
	case OpCast:
		fmt.Fprintf(b, " %s to %s", operandStr(in.ops[0]), in.ty)
	case OpPhi:
		fmt.Fprintf(b, " %s ", in.ty)
		for i := range in.ops {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "[ %s, %%%s ]", in.ops[i].Ident(), in.blocks[i].name)
		}
	default: // binary ops
		if in.op == OpShl || in.op == OpShr {
			// the shift amount is ubyte-typed, stated explicitly
			fmt.Fprintf(b, " %s %s, %s %s", in.ops[0].Type(), in.ops[0].Ident(),
				in.ops[1].Type(), in.ops[1].Ident())
		} else {
			fmt.Fprintf(b, " %s %s, %s", in.ops[0].Type(), in.ops[0].Ident(), in.ops[1].Ident())
		}
	}
	// The ExceptionsEnabled attribute is printed only when it differs
	// from the opcode default, as a parseable suffix.
	if in.ExceptionsEnabled != in.op.DefaultExceptionsEnabled() {
		if in.ExceptionsEnabled {
			b.WriteString(" !exc")
		} else {
			b.WriteString(" !noexc")
		}
	}
}
