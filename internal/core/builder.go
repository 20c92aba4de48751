package core

import "fmt"

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// Builder constructs well-typed LLVA instructions and appends them to a
// current insertion block. Type errors panic: the builder is a programming
// API, and malformed IR is a caller bug (front-ends validate inputs before
// reaching the builder).
type Builder struct {
	fn  *Function
	bb  *BasicBlock
	ctx *TypeContext
}

// NewBuilder creates a builder positioned at no block.
func NewBuilder(f *Function) *Builder {
	return &Builder{fn: f, ctx: f.parent.ctx}
}

// SetBlock positions the builder at the end of bb.
func (b *Builder) SetBlock(bb *BasicBlock) { b.bb = bb }

// Block returns the current insertion block.
func (b *Builder) Block() *BasicBlock { return b.bb }

// Func returns the function under construction.
func (b *Builder) Func() *Function { return b.fn }

func (b *Builder) emit(in *Instruction, name string) *Instruction {
	in.name = name
	b.bb.Append(in)
	return in
}

func (b *Builder) binary(op Opcode, x, y Value, name string) *Instruction {
	if x.Type() != y.Type() {
		panic(fmt.Sprintf("core: %s operand type mismatch: %s vs %s", op, x.Type(), y.Type()))
	}
	var rt *Type
	if op.IsComparison() {
		rt = b.ctx.Bool()
	} else {
		rt = x.Type()
	}
	return b.emit(NewInstruction(op, rt, x, y), name)
}

// Arithmetic and bitwise instructions.
func (b *Builder) Add(x, y Value, name string) *Instruction { return b.binary(OpAdd, x, y, name) }
func (b *Builder) Sub(x, y Value, name string) *Instruction { return b.binary(OpSub, x, y, name) }
func (b *Builder) Mul(x, y Value, name string) *Instruction { return b.binary(OpMul, x, y, name) }
func (b *Builder) Div(x, y Value, name string) *Instruction { return b.binary(OpDiv, x, y, name) }
func (b *Builder) Rem(x, y Value, name string) *Instruction { return b.binary(OpRem, x, y, name) }
func (b *Builder) And(x, y Value, name string) *Instruction { return b.binary(OpAnd, x, y, name) }
func (b *Builder) Or(x, y Value, name string) *Instruction  { return b.binary(OpOr, x, y, name) }
func (b *Builder) Xor(x, y Value, name string) *Instruction { return b.binary(OpXor, x, y, name) }

// Shl and Shr take a ubyte shift amount, matching LLVA's fixed shift-count
// type.
func (b *Builder) Shl(x, amt Value, name string) *Instruction {
	return b.shift(OpShl, x, amt, name)
}
func (b *Builder) Shr(x, amt Value, name string) *Instruction {
	return b.shift(OpShr, x, amt, name)
}

func (b *Builder) shift(op Opcode, x, amt Value, name string) *Instruction {
	if !x.Type().IsInteger() {
		panic("core: shift of non-integer " + x.Type().String())
	}
	if amt.Type().Kind() != UByteKind {
		panic("core: shift amount must be ubyte, got " + amt.Type().String())
	}
	return b.emit(NewInstruction(op, x.Type(), x, amt), name)
}

// Comparison instructions (result type bool).
func (b *Builder) SetEQ(x, y Value, name string) *Instruction { return b.binary(OpSetEQ, x, y, name) }
func (b *Builder) SetNE(x, y Value, name string) *Instruction { return b.binary(OpSetNE, x, y, name) }
func (b *Builder) SetLT(x, y Value, name string) *Instruction { return b.binary(OpSetLT, x, y, name) }
func (b *Builder) SetGT(x, y Value, name string) *Instruction { return b.binary(OpSetGT, x, y, name) }
func (b *Builder) SetLE(x, y Value, name string) *Instruction { return b.binary(OpSetLE, x, y, name) }
func (b *Builder) SetGE(x, y Value, name string) *Instruction { return b.binary(OpSetGE, x, y, name) }

// RetVoid emits "ret void".
func (b *Builder) RetVoid() *Instruction {
	return b.emit(NewInstruction(OpRet, b.ctx.Void()), "")
}

// Ret emits "ret <v>".
func (b *Builder) Ret(v Value) *Instruction {
	return b.emit(NewInstruction(OpRet, b.ctx.Void(), v), "")
}

// Br emits an unconditional branch.
func (b *Builder) Br(target *BasicBlock) *Instruction {
	in := NewInstruction(OpBr, b.ctx.Void())
	in.AddBlock(target)
	return b.emit(in, "")
}

// CondBr emits a conditional branch on a bool value.
func (b *Builder) CondBr(cond Value, t, f *BasicBlock) *Instruction {
	if cond.Type().Kind() != BoolKind {
		panic("core: br condition must be bool")
	}
	in := NewInstruction(OpBr, b.ctx.Void(), cond)
	in.blocks = []*BasicBlock{t, f}
	return b.emit(in, "")
}

// Mbr emits a multi-way branch on an integer value with the given case
// values and targets.
func (b *Builder) Mbr(v Value, def *BasicBlock, cases []int64, targets []*BasicBlock) *Instruction {
	if !v.Type().IsInteger() {
		panic("core: mbr index must be integer")
	}
	if len(cases) != len(targets) {
		panic("core: mbr cases/targets length mismatch")
	}
	in := NewInstruction(OpMbr, b.ctx.Void(), v)
	in.blocks = append(append(make([]*BasicBlock, 0, 1+len(targets)), def), targets...)
	in.Cases = append(in.Cases, cases...)
	return b.emit(in, "")
}

func checkCall(callee Value, args []Value) *Type {
	pt := callee.Type()
	if pt.Kind() != PointerKind || pt.Elem().Kind() != FunctionKind {
		panic("core: callee is not a pointer to function: " + pt.String())
	}
	sig := pt.Elem()
	if !sig.Variadic() && len(args) != len(sig.Params()) ||
		sig.Variadic() && len(args) < len(sig.Params()) {
		panic(fmt.Sprintf("core: call to %s with %d args", sig, len(args)))
	}
	for i, p := range sig.Params() {
		if args[i].Type() != p {
			panic(fmt.Sprintf("core: call arg %d type %s, want %s", i, args[i].Type(), p))
		}
	}
	return sig.Ret()
}

// Call emits a direct or indirect function call.
func (b *Builder) Call(callee Value, args []Value, name string) *Instruction {
	rt := checkCall(callee, args)
	ops := append([]Value{callee}, args...)
	return b.emit(NewInstruction(OpCall, rt, ops...), name)
}

// Invoke emits a call with explicit normal and unwind successors,
// implementing source-language exceptions via stack unwinding.
func (b *Builder) Invoke(callee Value, args []Value, normal, unwind *BasicBlock, name string) *Instruction {
	rt := checkCall(callee, args)
	ops := append([]Value{callee}, args...)
	in := NewInstruction(OpInvoke, rt, ops...)
	in.blocks = []*BasicBlock{normal, unwind}
	return b.emit(in, name)
}

// Unwind emits an unwind instruction, which pops stack frames until the
// nearest dynamically-enclosing invoke and transfers to its unwind block.
func (b *Builder) Unwind() *Instruction {
	return b.emit(NewInstruction(OpUnwind, b.ctx.Void()), "")
}

// Load emits a typed load through a pointer.
func (b *Builder) Load(ptr Value, name string) *Instruction {
	pt := ptr.Type()
	if pt.Kind() != PointerKind {
		panic("core: load of non-pointer " + pt.String())
	}
	if !pt.Elem().IsFirstClass() {
		panic("core: load of non-first-class type " + pt.Elem().String())
	}
	return b.emit(NewInstruction(OpLoad, pt.Elem(), ptr), name)
}

// Store emits a typed store through a pointer.
func (b *Builder) Store(v, ptr Value) *Instruction {
	pt := ptr.Type()
	if pt.Kind() != PointerKind {
		panic("core: store to non-pointer " + pt.String())
	}
	if v.Type() != pt.Elem() {
		panic(fmt.Sprintf("core: store type mismatch: %s into %s", v.Type(), pt))
	}
	return b.emit(NewInstruction(OpStore, b.ctx.Void(), v, ptr), "")
}

// GEP emits a getelementptr: type-safe pointer arithmetic with offsets in
// terms of abstract type properties (field numbers and element indices),
// never exposing pointer size or endianness (paper, Section 3.1).
func (b *Builder) GEP(ptr Value, indices []Value, name string) *Instruction {
	pt := ptr.Type()
	if pt.Kind() != PointerKind {
		panic("core: getelementptr on non-pointer " + pt.String())
	}
	if len(indices) == 0 {
		panic("core: getelementptr requires at least one index")
	}
	for _, idx := range indices {
		if !idx.Type().IsInteger() {
			panic("core: getelementptr index must be integer, got " + idx.Type().String())
		}
	}
	rt, err := GEPResultType(pt.Elem(), indices)
	if err != nil {
		panic("core: " + err.Error())
	}
	ops := append([]Value{ptr}, indices...)
	return b.emit(NewInstruction(OpGetElementPtr, b.ctx.Pointer(rt), ops...), name)
}

// Alloca emits a stack allocation of one elem and returns its typed
// address. Stack frame layout is abstracted behind this instruction
// (paper, Section 3.2).
func (b *Builder) Alloca(elem *Type, name string) *Instruction {
	in := NewInstruction(OpAlloca, b.ctx.Pointer(elem))
	in.Allocated = elem
	return b.emit(in, name)
}

// AllocaN emits a stack allocation of count elements (count is uint).
func (b *Builder) AllocaN(elem *Type, count Value, name string) *Instruction {
	if count.Type().Kind() != UIntKind {
		panic("core: alloca count must be uint")
	}
	in := NewInstruction(OpAlloca, b.ctx.Pointer(elem), count)
	in.Allocated = elem
	return b.emit(in, name)
}

// Cast emits the sole type-conversion instruction, converting a register
// value from one scalar type to another (there is no implicit coercion in
// LLVA).
func (b *Builder) Cast(v Value, to *Type, name string) *Instruction {
	if err := CheckCast(v.Type(), to); err != nil {
		panic("core: " + err.Error())
	}
	return b.emit(NewInstruction(OpCast, to, v), name)
}

// Phi emits an empty phi of the given type; add incomings with
// AddPhiIncoming. Phis merge SSA values at control-flow join points.
func (b *Builder) Phi(ty *Type, name string) *Instruction {
	if !ty.IsFirstClass() {
		panic("core: phi of non-first-class type " + ty.String())
	}
	in := NewInstruction(OpPhi, ty)
	in.name = name
	// Phis must precede all non-phi instructions in the block.
	b.bb.InsertAt(b.bb.FirstNonPhi(), in)
	return in
}

// CheckCast validates a cast between two types: any scalar-to-scalar
// conversion between bool, integer, floating-point and pointer types is
// permitted.
func CheckCast(from, to *Type) error {
	if !from.IsFirstClass() || !to.IsFirstClass() {
		return errf("cast between non-scalar types %s and %s", from, to)
	}
	if from.IsFloat() && to.Kind() == PointerKind || from.Kind() == PointerKind && to.IsFloat() {
		return errf("cast between floating point and pointer: %s to %s", from, to)
	}
	return nil
}
