package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ConstKind discriminates the flavours of constants.
type ConstKind uint8

// The constant kinds. Scalar constants (int, float, bool, null, undef) may
// appear as instruction operands; aggregate constants (array, struct,
// zeroinitializer, string) appear as global variable initializers.
const (
	ConstInt ConstKind = iota
	ConstFloat
	ConstBool
	ConstNull
	ConstUndef
	ConstZero   // zeroinitializer (any sized type)
	ConstArray  // element list
	ConstStruct // field list
	ConstGlobal // address of a GlobalVariable or Function
)

// Constant is an immutable LLVA constant value. Constants do not track
// uses; passes never mutate them in place.
type Constant struct {
	CK    ConstKind
	ty    *Type
	I     uint64      // ConstInt (bit pattern), ConstBool (0/1)
	F     float64     // ConstFloat
	Elems []*Constant // ConstArray / ConstStruct
	Ref   Value       // ConstGlobal: the referenced *GlobalVariable or *Function
}

// Type returns the constant's type.
func (c *Constant) Type() *Type { return c.ty }

// Name returns "" — constants are unnamed.
func (c *Constant) Name() string { return "" }

// Ident renders the constant as an instruction operand.
func (c *Constant) Ident() string {
	switch c.CK {
	case ConstInt:
		if c.ty.IsSigned() {
			return strconv.FormatInt(c.Int64(), 10)
		}
		return strconv.FormatUint(c.I, 10)
	case ConstFloat:
		s := strconv.FormatFloat(c.F, 'g', -1, 64)
		// Assembly requires a disambiguating mark so floats re-parse as
		// floats.
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && !strings.Contains(s, "NaN") {
			s += ".0"
		}
		return s
	case ConstBool:
		if c.I != 0 {
			return "true"
		}
		return "false"
	case ConstNull:
		return "null"
	case ConstUndef:
		return "undef"
	case ConstZero:
		return "zeroinitializer"
	case ConstArray:
		var b strings.Builder
		b.WriteString("[ ")
		for i, e := range c.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.ty.String())
			b.WriteByte(' ')
			b.WriteString(e.Ident())
		}
		b.WriteString(" ]")
		return b.String()
	case ConstStruct:
		var b strings.Builder
		b.WriteString("{ ")
		for i, e := range c.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.ty.String())
			b.WriteByte(' ')
			b.WriteString(e.Ident())
		}
		b.WriteString(" }")
		return b.String()
	case ConstGlobal:
		return c.Ref.Ident()
	}
	return "<bad-constant>"
}

// ConstKey is a constant's identity by content, the key of a table of
// constants: constants are not interned, and two have equal keys exactly
// when they print alike (same type and Ident). A scalar is keyed by its
// type, kind and bit pattern (every NaN alike, as every NaN prints
// alike), an address by its global, an aggregate by its printed form.
type ConstKey struct {
	ty   *Type
	ck   ConstKind
	bits uint64
	ref  Value
	text string
}

// Key returns c's ConstKey.
func (c *Constant) Key() ConstKey {
	k := ConstKey{ty: c.ty, ck: c.CK}
	switch c.CK {
	case ConstInt:
		k.bits = uint64(c.Int64())
	case ConstBool:
		if c.I != 0 {
			k.bits = 1
		}
	case ConstFloat:
		k.bits = math.Float64bits(c.F)
		if c.F != c.F {
			k.bits = math.Float64bits(math.NaN())
		}
	case ConstGlobal:
		k.ref = c.Ref
	case ConstNull, ConstUndef, ConstZero:
	default:
		k.text = c.Ident()
	}
	return k
}

// NewGlobalRef returns a constant holding the address of a global variable
// or function, for use in global initializers (e.g. function-pointer
// tables).
func NewGlobalRef(ref Value) *Constant {
	switch ref.(type) {
	case *GlobalVariable, *Function:
		return &Constant{CK: ConstGlobal, ty: ref.Type(), Ref: ref}
	}
	panic("core: NewGlobalRef of non-global value")
}

// NewUnresolvedGlobalRef returns a ConstGlobal of the given pointer type
// whose Ref is a Placeholder; parsers use it for forward references and
// call Resolve once the real global is known.
func NewUnresolvedGlobalRef(ty *Type, name string) *Constant {
	return &Constant{CK: ConstGlobal, ty: ty, Ref: NewPlaceholder(ty, name)}
}

// Resolve replaces an unresolved ConstGlobal's placeholder with the real
// global value, which must have the same type.
func (c *Constant) Resolve(ref Value) error {
	if c.CK != ConstGlobal {
		return errf("Resolve on non-global constant")
	}
	if ref.Type() != c.ty {
		return errf("global %%%s has type %s, initializer expects %s",
			ref.Name(), ref.Type(), c.ty)
	}
	c.Ref = ref
	return nil
}

// Int64 returns the constant integer's value sign-extended to 64 bits
// according to its type.
func (c *Constant) Int64() int64 { return int64(ScalarOf(c.ty).Canon(c.I)) }

// NewInt returns an integer constant of type t holding value v (truncated
// to t's width). t must be an integer type.
func NewInt(t *Type, v int64) *Constant {
	if !t.IsInteger() {
		panic("core: NewInt with non-integer type " + t.String())
	}
	return &Constant{CK: ConstInt, ty: t, I: ScalarOf(t).trunc(uint64(v))}
}

// NewUint returns an unsigned integer constant.
func NewUint(t *Type, v uint64) *Constant {
	if !t.IsInteger() {
		panic("core: NewUint with non-integer type " + t.String())
	}
	return &Constant{CK: ConstInt, ty: t, I: ScalarOf(t).trunc(v)}
}

// NewFloat returns a floating-point constant of type t (float or double).
// Float-typed constants are rounded to float32 precision.
func NewFloat(t *Type, v float64) *Constant {
	if !t.IsFloat() {
		panic("core: NewFloat with non-float type " + t.String())
	}
	if t.Kind() == FloatKind {
		v = float64(float32(v))
	}
	return &Constant{CK: ConstFloat, ty: t, F: v}
}

// NewBool returns the boolean constant for v.
func NewBool(t *Type, v bool) *Constant {
	if t.Kind() != BoolKind {
		panic("core: NewBool with non-bool type")
	}
	var i uint64
	if v {
		i = 1
	}
	return &Constant{CK: ConstBool, ty: t, I: i}
}

// NewNull returns the null pointer constant of pointer type t.
func NewNull(t *Type) *Constant {
	if t.Kind() != PointerKind {
		panic("core: NewNull with non-pointer type " + t.String())
	}
	return &Constant{CK: ConstNull, ty: t}
}

// NewUndef returns an undef constant of first-class type t.
func NewUndef(t *Type) *Constant { return &Constant{CK: ConstUndef, ty: t} }

// NewZero returns the zeroinitializer constant for any sized type t.
func NewZero(t *Type) *Constant { return &Constant{CK: ConstZero, ty: t} }

// NewArray returns an array constant. All elements must have type t.Elem()
// and len(elems) must equal t.Len().
func NewArray(t *Type, elems []*Constant) *Constant {
	if t.Kind() != ArrayKind || len(elems) != t.Len() {
		panic("core: bad array constant")
	}
	for _, e := range elems {
		if e.ty != t.Elem() {
			panic("core: array constant element type mismatch")
		}
	}
	return &Constant{CK: ConstArray, ty: t, Elems: elems}
}

// NewStruct returns a struct constant whose fields match t's field types.
func NewStruct(t *Type, elems []*Constant) *Constant {
	if t.Kind() != StructKind || len(elems) != len(t.Fields()) {
		panic("core: bad struct constant")
	}
	for i, e := range elems {
		if e.ty != t.Fields()[i] {
			panic("core: struct constant field type mismatch")
		}
	}
	return &Constant{CK: ConstStruct, ty: t, Elems: elems}
}

// NewString returns an array-of-ubyte constant holding s followed by a NUL
// terminator, matching C string literal lowering.
func NewString(ctx *TypeContext, s string) *Constant {
	ub := ctx.UByte()
	elems := make([]*Constant, len(s)+1)
	for i := 0; i < len(s); i++ {
		elems[i] = NewUint(ub, uint64(s[i]))
	}
	elems[len(s)] = NewUint(ub, 0)
	return NewArray(ctx.Array(len(s)+1, ub), elems)
}

// ConstantEqual reports whether two constants are structurally identical.
func ConstantEqual(a, b *Constant) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.CK != b.CK || a.ty != b.ty {
		return false
	}
	switch a.CK {
	case ConstInt, ConstBool:
		return a.I == b.I
	case ConstFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case ConstNull, ConstUndef, ConstZero:
		return true
	case ConstArray, ConstStruct:
		if len(a.Elems) != len(b.Elems) {
			return false
		}
		for i := range a.Elems {
			if !ConstantEqual(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	case ConstGlobal:
		return a.Ref.Name() == b.Ref.Name()
	}
	return false
}

func (c *Constant) String() string {
	return fmt.Sprintf("%s %s", c.ty, c.Ident())
}
