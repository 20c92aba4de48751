// Package obj implements the LLVA virtual object code format: a compact
// binary encoding of modules. Following the paper (Section 3.1), the
// instruction encoding is self-extending: most instructions fit a
// fixed-size 32-bit compact form (opcode, exception bit, two operand IDs
// and a type ID, each under 256), and instructions that do not fit use a
// variable-length extended form. Value names are debug information and are
// not stored, which — together with SSA and the absence of
// machine-specific argument-passing/spill code — keeps virtual object code
// smaller than native code (Table 2, columns 3-4).
//
// The module header records the pointer size and endianness flags the
// V-ISA exposes for non-type-safe code (Section 3.2).
package obj

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"llva/internal/core"
)

// Magic identifies LLVA object files.
var Magic = [4]byte{'L', 'L', 'V', 'A'}

// Version is the current format version.
const Version = 1

type writer struct {
	buf bytes.Buffer
	m   *core.Module

	types   map[*core.Type]int
	typeLst []*core.Type

	// globalID numbers the module's globals then functions. They carry
	// no function-local number, and the table is built once per module.
	globalID map[core.Value]int
}

// Encode serializes a module to virtual object code.
func Encode(m *core.Module) ([]byte, error) {
	w := &writer{
		m:        m,
		types:    make(map[*core.Type]int),
		globalID: make(map[core.Value]int),
	}
	return w.run()
}

func (w *writer) run() ([]byte, error) {
	w.buf.Write(Magic[:])
	w.byte(Version)
	flags := byte(0)
	if w.m.LittleEndian {
		flags |= 1
	}
	if w.m.PointerSize == 8 {
		flags |= 2
	}
	w.byte(flags)
	w.str(w.m.Name)

	// Collect types: walk everything.
	w.collectModuleTypes()
	// Type table.
	w.uvarint(uint64(len(w.typeLst)))
	for _, t := range w.typeLst {
		w.writeType(t)
	}

	// Module-level value IDs: globals then functions.
	for i, g := range w.m.Globals {
		w.globalID[g] = i
	}
	for i, f := range w.m.Functions {
		w.globalID[f] = len(w.m.Globals) + i
	}

	// Symbol tables first (global shells, then function shells), so that
	// global initializers can reference functions and later globals.
	w.uvarint(uint64(len(w.m.Globals)))
	for _, g := range w.m.Globals {
		w.str(g.Name())
		w.uvarint(uint64(w.types[g.ValueType()]))
		flags := byte(0)
		if g.IsConst {
			flags |= 1
		}
		if g.Init != nil {
			flags |= 2
		}
		w.byte(flags)
	}
	w.uvarint(uint64(len(w.m.Functions)))
	for _, f := range w.m.Functions {
		w.str(f.Name())
		w.uvarint(uint64(w.types[f.Signature()]))
		flags := byte(0)
		if f.Internal {
			flags |= 1
		}
		if !f.IsDeclaration() {
			flags |= 2
		}
		w.byte(flags)
	}

	// Global initializers.
	for _, g := range w.m.Globals {
		if g.Init != nil {
			if err := w.writeConst(g.Init); err != nil {
				return nil, err
			}
		}
	}

	// Function bodies.
	for _, f := range w.m.Functions {
		if f.IsDeclaration() {
			continue
		}
		if err := w.writeFunction(f); err != nil {
			return nil, err
		}
	}
	return w.buf.Bytes(), nil
}

// ------------------------------------------------------------- primitives

func (w *writer) byte(b byte) { w.buf.WriteByte(b) }

func (w *writer) uvarint(v uint64) {
	var tmp [10]byte
	n := binary.PutUvarint(tmp[:], v)
	w.buf.Write(tmp[:n])
}

func (w *writer) svarint(v int64) {
	var tmp [10]byte
	n := binary.PutVarint(tmp[:], v)
	w.buf.Write(tmp[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *writer) u32(v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	w.buf.Write(tmp[:])
}

func (w *writer) u64(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	w.buf.Write(tmp[:])
}

// ------------------------------------------------------------------ types

func (w *writer) typeID(t *core.Type) {
	id, ok := w.types[t]
	if !ok {
		panic("obj: uncollected type " + t.String())
	}
	w.uvarint(uint64(id))
}

// collect assigns an ID to t and its components (post-order so component
// IDs are lower, except recursive named structs which break cycles).
func (w *writer) collect(t *core.Type) {
	if t == nil {
		return
	}
	if _, ok := w.types[t]; ok {
		return
	}
	if t.Kind() == core.StructKind && t.Name() != "" {
		// Named structs may be recursive: assign the ID first.
		w.types[t] = len(w.typeLst)
		w.typeLst = append(w.typeLst, t)
		for _, f := range t.Fields() {
			w.collect(f)
		}
		return
	}
	switch t.Kind() {
	case core.PointerKind, core.ArrayKind:
		w.collect(t.Elem())
	case core.StructKind:
		for _, f := range t.Fields() {
			w.collect(f)
		}
	case core.FunctionKind:
		w.collect(t.Ret())
		for _, p := range t.Params() {
			w.collect(p)
		}
	}
	w.types[t] = len(w.typeLst)
	w.typeLst = append(w.typeLst, t)
}

func (w *writer) collectModuleTypes() {
	for _, g := range w.m.Globals {
		w.collect(g.ValueType())
	}
	for _, f := range w.m.Functions {
		w.collect(f.Signature())
		for _, bb := range f.Blocks {
			for _, in := range bb.Instructions() {
				if in.HasResult() {
					w.collect(in.Type())
				}
				if in.Allocated != nil {
					w.collect(in.Allocated)
				}
				for _, op := range in.Operands() {
					w.collect(op.Type())
				}
			}
		}
	}
}

func (w *writer) writeType(t *core.Type) {
	w.byte(byte(t.Kind()))
	switch t.Kind() {
	case core.PointerKind:
		w.typeID(t.Elem())
	case core.ArrayKind:
		w.uvarint(uint64(t.Len()))
		w.typeID(t.Elem())
	case core.StructKind:
		w.str(t.Name())
		if t.Opaque() {
			w.uvarint(0)
			w.byte(0)
			return
		}
		w.uvarint(uint64(len(t.Fields())))
		w.byte(1)
		for _, f := range t.Fields() {
			w.typeID(f)
		}
	case core.FunctionKind:
		w.typeID(t.Ret())
		w.uvarint(uint64(len(t.Params())))
		for _, p := range t.Params() {
			w.typeID(p)
		}
		if t.Variadic() {
			w.byte(1)
		} else {
			w.byte(0)
		}
	}
}

// -------------------------------------------------------------- constants

func (w *writer) writeConst(c *core.Constant) error {
	w.byte(byte(c.CK))
	w.typeID(c.Type())
	switch c.CK {
	case core.ConstInt:
		w.svarint(c.Int64())
	case core.ConstBool:
		w.byte(byte(c.I))
	case core.ConstFloat:
		w.u64(math.Float64bits(c.F))
	case core.ConstNull, core.ConstUndef, core.ConstZero:
	case core.ConstArray, core.ConstStruct:
		w.uvarint(uint64(len(c.Elems)))
		for _, e := range c.Elems {
			if err := w.writeConst(e); err != nil {
				return err
			}
		}
	case core.ConstGlobal:
		id, ok := w.globalID[c.Ref]
		if !ok {
			return fmt.Errorf("obj: constant references unknown global %%%s", c.Ref.Name())
		}
		w.uvarint(uint64(id))
	default:
		return fmt.Errorf("obj: unencodable constant kind %d", c.CK)
	}
	return nil
}

// -------------------------------------------------------------- functions

// Function-local value IDs:
//
//	[0, G)            module globals and functions
//	[G, G+P)          parameters
//	[G+P, G+P+C)      constant pool
//	[G+P+C, ...)      instruction results, in body order (instructions
//	                  without results still consume an ID slot, keeping
//	                  writer and reader numbering in lockstep)
func (w *writer) writeFunction(f *core.Function) error {
	// The local value numbering: parameters, the constant pool (unique
	// scalar constants used as operands, in first-use order), then the
	// instructions, by instruction number.
	params := len(w.m.Globals) + len(w.m.Functions)
	constBase := params + len(f.Params)
	var pool []*core.Constant
	poolIdx := make(map[core.ConstKey]int) // 1 + the constant's index in pool
	for _, bb := range f.Blocks {
		for _, in := range bb.Instructions() {
			for _, op := range in.Operands() {
				c, ok := op.(*core.Constant)
				if !ok {
					continue
				}
				if k := c.Key(); poolIdx[k] == 0 {
					pool = append(pool, c)
					poolIdx[k] = len(pool)
				}
			}
		}
	}
	instrID := make([]int32, f.InstrSlots())
	next := constBase + len(pool)
	for _, bb := range f.Blocks {
		for _, in := range bb.Instructions() {
			instrID[in.Num()] = int32(next)
			next++
		}
	}
	blocks := core.NewBlockIndex(f)

	// Emit pool.
	w.uvarint(uint64(len(pool)))
	for _, c := range pool {
		if err := w.writeConst(c); err != nil {
			return err
		}
	}

	// Emit body.
	w.uvarint(uint64(len(f.Blocks)))
	opID := func(v core.Value) (int, error) {
		switch x := v.(type) {
		case *core.Constant:
			return constBase + poolIdx[x.Key()] - 1, nil
		case *core.Argument:
			if x.Parent() == f {
				return params + x.Index(), nil
			}
		case *core.Instruction:
			if p := x.Parent(); p != nil && p.Parent() == f {
				return int(instrID[x.Num()]), nil
			}
		default:
			if id, ok := w.globalID[v]; ok {
				return id, nil
			}
		}
		return 0, fmt.Errorf("obj: operand %s has no ID in %%%s", v.Ident(), f.Name())
	}
	blockID := func(bb *core.BasicBlock) (int, error) {
		if i := blocks.Of(bb); i >= 0 {
			return i, nil
		}
		return 0, fmt.Errorf("obj: a branch in %%%s targets a block of another function", f.Name())
	}
	for _, bb := range f.Blocks {
		w.uvarint(uint64(len(bb.Instructions())))
		for _, in := range bb.Instructions() {
			if err := w.writeInstr(in, opID, blockID); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeInstr emits one instruction: 32-bit compact form when possible,
// extended form otherwise.
func (w *writer) writeInstr(in *core.Instruction,
	opID func(core.Value) (int, error), blockID func(*core.BasicBlock) (int, error)) error {

	eeBit := byte(0)
	if in.ExceptionsEnabled != in.Op().DefaultExceptionsEnabled() {
		eeBit = 1
	}
	tid := w.types[in.Type()]

	// Try the compact 32-bit form: [op:6|ee:1|ext:0] [a] [b] [t] — up to
	// two operands, no attached blocks, no extras, all fields < 256.
	if in.NumBlocks() == 0 && in.Allocated == nil && len(in.Cases) == 0 &&
		in.NumOperands() <= 2 && tid < 256 && in.Op() != core.OpCall {
		ids := [2]int{255, 255} // 255 = "no operand" sentinel? No: encode count in opcode space.
		ok := in.NumOperands() <= 2
		for i := 0; i < in.NumOperands(); i++ {
			id, err := opID(in.Operand(i))
			if err != nil {
				return err
			}
			if id >= 255 {
				ok = false
				break
			}
			ids[i] = id
		}
		// Operand count must be recoverable: binary ops always have 2,
		// load/cast 1, ret 0/1. Use sentinel 255 for "absent".
		if ok {
			w.byte(byte(in.Op())<<2 | eeBit<<1 | 1)
			w.byte(byte(ids[0]))
			w.byte(byte(ids[1]))
			w.byte(byte(tid))
			return nil
		}
	}

	// Extended form.
	w.byte(byte(in.Op())<<2 | eeBit<<1)
	w.uvarint(uint64(tid))
	w.uvarint(uint64(in.NumOperands()))
	for _, op := range in.Operands() {
		id, err := opID(op)
		if err != nil {
			return err
		}
		w.uvarint(uint64(id))
	}
	w.uvarint(uint64(in.NumBlocks()))
	for _, bb := range in.Blocks() {
		id, err := blockID(bb)
		if err != nil {
			return err
		}
		w.uvarint(uint64(id))
	}
	switch in.Op() {
	case core.OpMbr:
		w.uvarint(uint64(len(in.Cases)))
		for _, c := range in.Cases {
			w.svarint(c)
		}
	case core.OpAlloca:
		w.uvarint(uint64(w.types[in.Allocated]))
	}
	return nil
}
