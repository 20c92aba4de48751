// Package core implements the LLVA virtual instruction set architecture:
// the type system, SSA values, the 28-instruction set, modules, functions,
// basic blocks, an IR builder, constant folding, and a verifier.
//
// The design follows the MICRO-36 2003 paper "LLVA: A Low-level Virtual
// Instruction Set Architecture": a typed, three-address, load/store V-ISA
// with an infinite SSA register file, explicit control-flow graphs, a
// language-independent type system of primitives plus four derived types
// (pointer, array, structure, function), and per-instruction exception
// attributes.
package core

import (
	"fmt"
	"strings"
)

// Kind identifies a type in the LLVA type system.
type Kind uint8

// The LLVA primitive and derived type kinds. Primitive types have
// predefined sizes; the four derived kinds are pointer, array, structure
// and function (paper, Section 3.1).
const (
	VoidKind Kind = iota
	BoolKind
	UByteKind
	SByteKind
	UShortKind
	ShortKind
	UIntKind
	IntKind
	ULongKind
	LongKind
	FloatKind
	DoubleKind
	LabelKind
	PointerKind
	ArrayKind
	StructKind
	FunctionKind
)

var kindNames = [...]string{
	VoidKind:     "void",
	BoolKind:     "bool",
	UByteKind:    "ubyte",
	SByteKind:    "sbyte",
	UShortKind:   "ushort",
	ShortKind:    "short",
	UIntKind:     "uint",
	IntKind:      "int",
	ULongKind:    "ulong",
	LongKind:     "long",
	FloatKind:    "float",
	DoubleKind:   "double",
	LabelKind:    "label",
	PointerKind:  "pointer",
	ArrayKind:    "array",
	StructKind:   "struct",
	FunctionKind: "function",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Type is an LLVA type. Types are interned per TypeContext, so two types
// are equal iff their pointers are equal. Named struct types are nominal
// (unique per name within a context) which permits recursive types such as
// the paper's QuadTree example.
type Type struct {
	kind     Kind
	elem     *Type   // pointer pointee / array element
	n        int     // array length
	fields   []*Type // struct fields
	params   []*Type // function parameters
	ret      *Type   // function return
	variadic bool
	name     string // non-empty for named struct types
	body     bool   // named struct: body has been set
}

// Kind reports the type's kind.
func (t *Type) Kind() Kind { return t.kind }

// Name returns the name of a named struct type, or "".
func (t *Type) Name() string { return t.name }

// Elem returns the pointee of a pointer type or element of an array type.
func (t *Type) Elem() *Type { return t.elem }

// Len returns the length of an array type.
func (t *Type) Len() int { return t.n }

// Fields returns a struct type's field types. The slice must not be mutated.
func (t *Type) Fields() []*Type { return t.fields }

// Params returns a function type's parameter types.
func (t *Type) Params() []*Type { return t.params }

// Ret returns a function type's return type.
func (t *Type) Ret() *Type { return t.ret }

// Variadic reports whether a function type accepts extra trailing arguments.
func (t *Type) Variadic() bool { return t.variadic }

// IsInteger reports whether t is one of the eight integer types.
func (t *Type) IsInteger() bool {
	return t.kind >= UByteKind && t.kind <= LongKind
}

// IsSigned reports whether t is a signed integer type.
func (t *Type) IsSigned() bool {
	switch t.kind {
	case SByteKind, ShortKind, IntKind, LongKind:
		return true
	}
	return false
}

// IsFloat reports whether t is float or double.
func (t *Type) IsFloat() bool { return t.kind == FloatKind || t.kind == DoubleKind }

// IsFirstClass reports whether values of this type may live in virtual
// registers. Per the paper, registers hold only scalars: boolean, integer,
// floating point, and pointer.
func (t *Type) IsFirstClass() bool {
	switch t.kind {
	case BoolKind, FloatKind, DoubleKind, PointerKind:
		return true
	}
	return t.IsInteger()
}

// IsSized reports whether values of the type have a knowable size in memory.
func (t *Type) IsSized() bool {
	switch t.kind {
	case VoidKind, LabelKind, FunctionKind:
		return false
	case StructKind:
		if t.name != "" && !t.body {
			return false // opaque named struct
		}
		for _, f := range t.fields {
			if !f.IsSized() {
				return false
			}
		}
		return true
	case ArrayKind:
		return t.elem.IsSized()
	}
	return true
}

// Opaque reports whether t is a named struct whose body has not been set.
func (t *Type) Opaque() bool { return t.kind == StructKind && t.name != "" && !t.body }

// String renders the type in LLVA assembly syntax. Named structs render as
// %name; use Definition for the full body.
func (t *Type) String() string {
	var b strings.Builder
	t.write(&b, false)
	return b.String()
}

// Definition renders a named struct type's full body (e.g. for module-level
// type declarations); for other types it is identical to String.
func (t *Type) Definition() string {
	var b strings.Builder
	t.write(&b, true)
	return b.String()
}

func (t *Type) write(b *strings.Builder, expandName bool) {
	if t == nil {
		b.WriteString("<nil-type>")
		return
	}
	if t.name != "" && !expandName {
		b.WriteByte('%')
		b.WriteString(t.name)
		return
	}
	switch t.kind {
	case PointerKind:
		t.elem.write(b, false)
		b.WriteByte('*')
	case ArrayKind:
		fmt.Fprintf(b, "[%d x ", t.n)
		t.elem.write(b, false)
		b.WriteByte(']')
	case StructKind:
		if t.name != "" && !t.body {
			b.WriteString("opaque")
			return
		}
		b.WriteString("{ ")
		for i, f := range t.fields {
			if i > 0 {
				b.WriteString(", ")
			}
			f.write(b, false)
		}
		b.WriteString(" }")
	case FunctionKind:
		t.ret.write(b, false)
		b.WriteString(" (")
		for i, p := range t.params {
			if i > 0 {
				b.WriteString(", ")
			}
			p.write(b, false)
		}
		if t.variadic {
			if len(t.params) > 0 {
				b.WriteString(", ")
			}
			b.WriteString("...")
		}
		b.WriteByte(')')
	default:
		b.WriteString(t.kind.String())
	}
}

// key returns the canonical interning key for structural types.
func (t *Type) key() string {
	var b strings.Builder
	t.writeKey(&b)
	return b.String()
}

func (t *Type) writeKey(b *strings.Builder) {
	if t.name != "" {
		// Named structs are nominal: key on the name.
		b.WriteString("%")
		b.WriteString(t.name)
		return
	}
	switch t.kind {
	case PointerKind:
		b.WriteByte('p')
		t.elem.writeKey(b)
	case ArrayKind:
		fmt.Fprintf(b, "a%d:", t.n)
		t.elem.writeKey(b)
	case StructKind:
		b.WriteByte('s')
		for _, f := range t.fields {
			f.writeKey(b)
			b.WriteByte(',')
		}
		b.WriteByte(';')
	case FunctionKind:
		b.WriteByte('f')
		t.ret.writeKey(b)
		b.WriteByte('(')
		for _, p := range t.params {
			p.writeKey(b)
			b.WriteByte(',')
		}
		if t.variadic {
			b.WriteString("...")
		}
		b.WriteByte(')')
	default:
		b.WriteString(t.kind.String())
	}
}

// TypeContext owns and interns types. All types used within one Module must
// come from the module's context.
type TypeContext struct {
	prim    [DoubleKind + 2]*Type // primitives indexed by kind (incl. label)
	derived map[string]*Type
	named   map[string]*Type
	// ptr caches Pointer by pointee, so that asking again for a pointer
	// type neither builds its key nor allocates.
	ptr map[*Type]*Type
}

// NewTypeContext creates an empty type context with all primitive types.
func NewTypeContext() *TypeContext {
	c := &TypeContext{
		derived: make(map[string]*Type),
		named:   make(map[string]*Type),
		ptr:     make(map[*Type]*Type),
	}
	for k := VoidKind; k <= LabelKind; k++ {
		c.prim[k] = &Type{kind: k}
	}
	return c
}

// Primitive returns the unique primitive type of the given kind.
func (c *TypeContext) Primitive(k Kind) *Type {
	if k > LabelKind {
		panic("core: Primitive called with derived kind " + k.String())
	}
	return c.prim[k]
}

// Convenience accessors for the primitive types.
func (c *TypeContext) Void() *Type   { return c.prim[VoidKind] }
func (c *TypeContext) Bool() *Type   { return c.prim[BoolKind] }
func (c *TypeContext) UByte() *Type  { return c.prim[UByteKind] }
func (c *TypeContext) SByte() *Type  { return c.prim[SByteKind] }
func (c *TypeContext) UShort() *Type { return c.prim[UShortKind] }
func (c *TypeContext) Short() *Type  { return c.prim[ShortKind] }
func (c *TypeContext) UInt() *Type   { return c.prim[UIntKind] }
func (c *TypeContext) Int() *Type    { return c.prim[IntKind] }
func (c *TypeContext) ULong() *Type  { return c.prim[ULongKind] }
func (c *TypeContext) Long() *Type   { return c.prim[LongKind] }
func (c *TypeContext) Float() *Type  { return c.prim[FloatKind] }
func (c *TypeContext) Double() *Type { return c.prim[DoubleKind] }
func (c *TypeContext) Label() *Type  { return c.prim[LabelKind] }

func (c *TypeContext) intern(t *Type) *Type {
	k := t.key()
	if got, ok := c.derived[k]; ok {
		return got
	}
	c.derived[k] = t
	return t
}

// Pointer returns the pointer type to elem.
func (c *TypeContext) Pointer(elem *Type) *Type {
	if p, ok := c.ptr[elem]; ok {
		return p
	}
	if elem.kind == VoidKind || elem.kind == LabelKind {
		panic("core: pointer to " + elem.kind.String())
	}
	p := c.intern(&Type{kind: PointerKind, elem: elem})
	c.ptr[elem] = p
	return p
}

// Array returns the array type [n x elem].
func (c *TypeContext) Array(n int, elem *Type) *Type {
	if n < 0 {
		panic("core: negative array length")
	}
	return c.intern(&Type{kind: ArrayKind, n: n, elem: elem})
}

// Struct returns the anonymous structure type with the given fields.
func (c *TypeContext) Struct(fields ...*Type) *Type {
	cp := make([]*Type, len(fields))
	copy(cp, fields)
	return c.intern(&Type{kind: StructKind, fields: cp, body: true})
}

// Function returns the function type ret(params...). variadic adds "...".
func (c *TypeContext) Function(ret *Type, params []*Type, variadic bool) *Type {
	cp := make([]*Type, len(params))
	copy(cp, params)
	return c.intern(&Type{kind: FunctionKind, ret: ret, params: cp, variadic: variadic})
}

// NamedStruct returns the named struct type for name, creating an opaque one
// if it does not yet exist. Named structs are nominal, enabling recursive
// types; call SetBody to provide fields.
func (c *TypeContext) NamedStruct(name string) *Type {
	if t, ok := c.named[name]; ok {
		return t
	}
	t := &Type{kind: StructKind, name: name}
	c.named[name] = t
	return t
}

// SetBody sets the field list of a named struct type. It panics if the body
// has already been set.
func (c *TypeContext) SetBody(t *Type, fields ...*Type) {
	if t.kind != StructKind || t.name == "" {
		panic("core: SetBody on non-named-struct type")
	}
	if t.body {
		panic("core: SetBody called twice on %" + t.name)
	}
	t.fields = append([]*Type(nil), fields...)
	t.body = true
}

// NamedTypes returns the names of all named struct types, in no particular
// order.
func (c *TypeContext) NamedTypes() map[string]*Type { return c.named }
