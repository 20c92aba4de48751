package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Module is a translation unit of LLVA virtual object code: named types,
// global variables and functions, plus the implementation-configuration
// flags the paper exposes for non-type-safe code (pointer size and
// endianness, Section 3.2).
type Module struct {
	Name string
	ctx  *TypeContext

	// PointerSize is the byte width of pointers (4 or 8).
	PointerSize int
	// LittleEndian records the byte order the object code assumes.
	LittleEndian bool

	Globals   []*GlobalVariable
	Functions []*Function

	globalsByName map[string]*GlobalVariable
	funcsByName   map[string]*Function
}

// NewModule creates an empty module with the default 64-bit little-endian
// configuration.
func NewModule(name string) *Module {
	return &Module{
		Name:          name,
		ctx:           NewTypeContext(),
		PointerSize:   8,
		LittleEndian:  true,
		globalsByName: make(map[string]*GlobalVariable),
		funcsByName:   make(map[string]*Function),
	}
}

// Types returns the module's type context.
func (m *Module) Types() *TypeContext { return m.ctx }

// Layout returns the module's memory layout rules.
func (m *Module) Layout() Layout { return Layout{PointerSize: m.PointerSize} }

// NewGlobal adds a global variable holding a value of type valueType.
// init may be nil for external globals.
func (m *Module) NewGlobal(name string, valueType *Type, init *Constant, isConst bool) *GlobalVariable {
	if _, dup := m.globalsByName[name]; dup {
		panic("core: duplicate global %" + name)
	}
	g := &GlobalVariable{
		name:      name,
		valueType: valueType,
		ty:        m.ctx.Pointer(valueType),
		Init:      init,
		IsConst:   isConst,
		parent:    m,
	}
	m.Globals = append(m.Globals, g)
	m.globalsByName[name] = g
	return g
}

// NewFunction adds a function with the given signature. A function with no
// body (no basic blocks) is a declaration.
func (m *Module) NewFunction(name string, sig *Type) *Function {
	if sig.Kind() != FunctionKind {
		panic("core: NewFunction with non-function type " + sig.String())
	}
	if _, dup := m.funcsByName[name]; dup {
		panic("core: duplicate function %" + name)
	}
	f := &Function{
		name:   name,
		sig:    sig,
		ty:     m.ctx.Pointer(sig),
		parent: m,
	}
	for i, pt := range sig.Params() {
		f.Params = append(f.Params, &Argument{
			name: fmt.Sprintf("arg%d", i), ty: pt, parent: f, index: i,
		})
	}
	m.Functions = append(m.Functions, f)
	m.funcsByName[name] = f
	return f
}

// Global returns the named global variable, or nil.
func (m *Module) Global(name string) *GlobalVariable { return m.globalsByName[name] }

// Function returns the named function, or nil.
func (m *Module) Function(name string) *Function { return m.funcsByName[name] }

// RemoveFunction deletes a function from the module. The function must be
// unused.
func (m *Module) RemoveFunction(f *Function) {
	if f.NumUses() != 0 {
		panic("core: removing function that still has uses: %" + f.name)
	}
	delete(m.funcsByName, f.name)
	for i, x := range m.Functions {
		if x == f {
			m.Functions = append(m.Functions[:i], m.Functions[i+1:]...)
			break
		}
	}
	for _, bb := range f.Blocks {
		for _, in := range bb.instrs {
			in.dropOperands()
		}
	}
	f.Blocks = nil
}

// RemoveGlobal deletes a global variable from the module. It must be unused.
func (m *Module) RemoveGlobal(g *GlobalVariable) {
	if g.NumUses() != 0 {
		panic("core: removing global that still has uses: %" + g.name)
	}
	delete(m.globalsByName, g.name)
	for i, x := range m.Globals {
		if x == g {
			m.Globals = append(m.Globals[:i], m.Globals[i+1:]...)
			break
		}
	}
}

// GlobalVariable is a module-level memory object. As a Value it denotes the
// address of the object, so its Type is a pointer to the value type.
type GlobalVariable struct {
	useList
	name      string
	valueType *Type
	ty        *Type // pointer to valueType
	parent    *Module

	// Init is the initializer; nil marks an external declaration.
	Init *Constant
	// IsConst marks read-only (constant) globals.
	IsConst bool
}

// Type returns the pointer-to-value type of the global.
func (g *GlobalVariable) Type() *Type { return g.ty }

// ValueType returns the type of the stored value.
func (g *GlobalVariable) ValueType() *Type { return g.valueType }

// Name returns the symbol name.
func (g *GlobalVariable) Name() string { return g.name }

// Ident renders the global as an operand.
func (g *GlobalVariable) Ident() string { return "%" + g.name }

// Parent returns the owning module.
func (g *GlobalVariable) Parent() *Module { return g.parent }

// Function is an LLVA function: a list of basic blocks, the first of which
// is the entry block. As a Value it denotes the function's address and has
// pointer-to-function type so that direct and indirect calls are uniform.
type Function struct {
	useList
	name   string
	sig    *Type // function type
	ty     *Type // pointer to sig
	parent *Module

	Params []*Argument
	Blocks []*BasicBlock

	// Internal marks linkage-internal functions eligible for
	// interprocedural optimization and dead-function elimination.
	Internal bool

	nextID int // unnamed value numbering

	// The next block and instruction numbers: the bounds Num stays below.
	blockSlots, instrSlots int32
}

// Type returns the pointer-to-function type.
func (f *Function) Type() *Type { return f.ty }

// Signature returns the underlying function type.
func (f *Function) Signature() *Type { return f.sig }

// Name returns the function's symbol name.
func (f *Function) Name() string { return f.name }

// Ident renders the function as an operand.
func (f *Function) Ident() string { return "%" + f.name }

// Parent returns the owning module.
func (f *Function) Parent() *Module { return f.parent }

// IsDeclaration reports whether the function has no body.
func (f *Function) IsDeclaration() bool { return len(f.Blocks) == 0 }

// IsIntrinsic reports whether the function is an LLVA intrinsic, i.e. a
// function implemented by the translator itself (paper, Section 3.5).
// Intrinsics are named "llva.*".
func (f *Function) IsIntrinsic() bool { return strings.HasPrefix(f.name, "llva.") }

// Entry returns the entry basic block.
func (f *Function) Entry() *BasicBlock { return f.Blocks[0] }

// NewBlock appends a new basic block with the given label name.
func (f *Function) NewBlock(name string) *BasicBlock {
	bb := &BasicBlock{name: name, parent: f, num: f.blockSlots}
	f.blockSlots++
	f.Blocks = append(f.Blocks, bb)
	return bb
}

// BlockSlots bounds the numbers of f's blocks: every BasicBlock.Num is
// below it, so a slice that long is a table indexed by block.
func (f *Function) BlockSlots() int { return int(f.blockSlots) }

// InstrSlots bounds the numbers of f's instructions, as BlockSlots
// bounds its blocks'.
func (f *Function) InstrSlots() int { return int(f.instrSlots) }

// Renumber gives f's blocks and instructions the numbers 0, 1, ... in
// body order, so that the slot counts equal the real counts. Like any
// other mutation it must not run while another goroutine reads f.
func (f *Function) Renumber() {
	var n int32
	for i, bb := range f.Blocks {
		bb.num = int32(i)
		for _, in := range bb.instrs {
			in.num = n
			n++
		}
	}
	f.blockSlots, f.instrSlots = int32(len(f.Blocks)), n
}

// RemoveBlock unlinks a basic block from the function. Instructions inside
// are dropped; the block must not be referenced by other blocks.
func (f *Function) RemoveBlock(bb *BasicBlock) {
	for _, in := range bb.instrs {
		in.dropOperands()
		in.parent = nil
	}
	bb.instrs = nil
	for i, x := range f.Blocks {
		if x == bb {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			break
		}
	}
	bb.parent = nil
}

// Block returns the basic block with the given name, or nil.
func (f *Function) Block(name string) *BasicBlock {
	for _, bb := range f.Blocks {
		if bb.name == name {
			return bb
		}
	}
	return nil
}

// NumInstructions counts the instructions in the function body.
func (f *Function) NumInstructions() int {
	n := 0
	for _, bb := range f.Blocks {
		n += len(bb.instrs)
	}
	return n
}

// AssignNames gives every value and block a unique name so the function
// can be printed and re-parsed: unnamed values receive numeric names and
// duplicated names get uniquifying suffixes (value names and block labels
// are separate namespaces in the assembly syntax).
func (f *Function) AssignNames() {
	values := make(map[string]bool)
	blocks := make(map[string]bool)
	fresh := func(seen map[string]bool) string {
		for {
			n := strconv.Itoa(f.nextID)
			f.nextID++
			if !seen[n] {
				seen[n] = true
				return n
			}
		}
	}
	uniquify := func(seen map[string]bool, name string) string {
		if name == "" {
			return fresh(seen)
		}
		if !seen[name] {
			seen[name] = true
			return name
		}
		for i := 1; ; i++ {
			cand := name + "." + strconv.Itoa(i)
			if !seen[cand] {
				seen[cand] = true
				return cand
			}
		}
	}
	for _, p := range f.Params {
		p.name = uniquify(values, p.name)
	}
	for _, bb := range f.Blocks {
		bb.name = uniquify(blocks, bb.name)
		for _, in := range bb.instrs {
			if in.HasResult() {
				in.name = uniquify(values, in.name)
			}
		}
	}
}

// BasicBlock is a list of instructions ending in exactly one control-flow
// instruction that explicitly names its successors (paper, Section 3.1).
// As a Value, a block is a label usable as a branch target.
type BasicBlock struct {
	useList
	name   string
	parent *Function
	instrs []*Instruction
	num    int32
}

// Type returns the label type.
func (bb *BasicBlock) Type() *Type { return bb.parent.parent.ctx.Label() }

// Name returns the block's label.
func (bb *BasicBlock) Name() string { return bb.name }

// SetName renames the block.
func (bb *BasicBlock) SetName(n string) { bb.name = n }

// Ident renders the block as a label operand.
func (bb *BasicBlock) Ident() string { return "label %" + bb.name }

// Parent returns the containing function.
func (bb *BasicBlock) Parent() *Function { return bb.parent }

// Num returns the block's number: unique among the blocks of its
// function and below the function's BlockSlots. NewBlock assigns it.
func (bb *BasicBlock) Num() int { return int(bb.num) }

// Instructions returns the instruction list; callers must not append.
func (bb *BasicBlock) Instructions() []*Instruction { return bb.instrs }

// Len returns the number of instructions in the block.
func (bb *BasicBlock) Len() int { return len(bb.instrs) }

// Append adds an instruction at the end of the block.
func (bb *BasicBlock) Append(in *Instruction) {
	bb.attach(in)
	bb.instrs = append(bb.instrs, in)
}

// attach makes bb the parent of in, numbering it in bb's function.
func (bb *BasicBlock) attach(in *Instruction) {
	if in.parent != nil {
		panic("core: instruction already attached")
	}
	in.parent = bb
	if f := bb.parent; f != nil {
		in.num = f.instrSlots
		f.instrSlots++
	}
}

// InsertAt places an instruction at index i.
func (bb *BasicBlock) InsertAt(i int, in *Instruction) {
	bb.attach(in)
	bb.instrs = append(bb.instrs, nil)
	copy(bb.instrs[i+1:], bb.instrs[i:])
	bb.instrs[i] = in
}

// InsertBefore places in immediately before pos (which must be in bb).
func (bb *BasicBlock) InsertBefore(pos, in *Instruction) {
	for i, x := range bb.instrs {
		if x == pos {
			bb.InsertAt(i, in)
			return
		}
	}
	panic("core: InsertBefore position not found")
}

// Terminator returns the block's final control-flow instruction, or nil if
// the block is not (yet) well formed.
func (bb *BasicBlock) Terminator() *Instruction {
	if len(bb.instrs) == 0 {
		return nil
	}
	last := bb.instrs[len(bb.instrs)-1]
	if !last.IsTerminator() {
		return nil
	}
	return last
}

// Successors returns the block's control-flow successors.
func (bb *BasicBlock) Successors() []*BasicBlock {
	t := bb.Terminator()
	if t == nil {
		return nil
	}
	return t.Successors()
}

// Phis returns the phi instructions at the head of the block, as a view
// of the instruction list: callers must not add or remove instructions
// of the block while they walk it.
func (bb *BasicBlock) Phis() []*Instruction {
	n := bb.FirstNonPhi()
	return bb.instrs[:n:n]
}

// FirstNonPhi returns the index of the first non-phi instruction.
func (bb *BasicBlock) FirstNonPhi() int {
	for i, in := range bb.instrs {
		if in.op != OpPhi {
			return i
		}
	}
	return len(bb.instrs)
}
