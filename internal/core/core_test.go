package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func ctx() *TypeContext { return NewTypeContext() }

func TestTypeInterning(t *testing.T) {
	c := ctx()
	if c.Pointer(c.Int()) != c.Pointer(c.Int()) {
		t.Error("pointer types not interned")
	}
	// A pointer type asked for again is a lookup: no key, no allocation.
	elem := c.Struct(c.Int(), c.Array(4, c.Double()))
	if p := c.Pointer(elem); p != c.Pointer(elem) || p.Elem() != elem {
		t.Error("pointer to a struct not interned")
	}
	if n := testing.AllocsPerRun(100, func() { c.Pointer(elem) }); n != 0 {
		t.Errorf("Pointer of an existing type allocates %.0f times", n)
	}
	if c.Array(4, c.Double()) != c.Array(4, c.Double()) {
		t.Error("array types not interned")
	}
	if c.Array(4, c.Double()) == c.Array(5, c.Double()) {
		t.Error("arrays of different length compare equal")
	}
	if c.Struct(c.Int(), c.Double()) != c.Struct(c.Int(), c.Double()) {
		t.Error("struct types not interned")
	}
	if c.Function(c.Int(), []*Type{c.Long()}, false) !=
		c.Function(c.Int(), []*Type{c.Long()}, false) {
		t.Error("function types not interned")
	}
	if c.Function(c.Int(), []*Type{c.Long()}, false) ==
		c.Function(c.Int(), []*Type{c.Long()}, true) {
		t.Error("variadic flag ignored in interning")
	}
}

func TestNamedStructRecursion(t *testing.T) {
	c := ctx()
	qt := c.NamedStruct("QT")
	if !qt.Opaque() {
		t.Error("fresh named struct must be opaque")
	}
	c.SetBody(qt, c.Double(), c.Array(4, c.Pointer(qt)))
	if qt.Opaque() {
		t.Error("struct still opaque after SetBody")
	}
	if qt.Fields()[1].Elem().Elem() != qt {
		t.Error("recursive field does not point back")
	}
	if c.NamedStruct("QT") != qt {
		t.Error("named structs are not nominal")
	}
	if !qt.IsSized() {
		t.Error("recursive struct with body should be sized")
	}
}

func TestTypeStringRendering(t *testing.T) {
	c := ctx()
	cases := map[string]*Type{
		"int":               c.Int(),
		"double*":           c.Pointer(c.Double()),
		"[8 x ubyte]":       c.Array(8, c.UByte()),
		"{ int, long* }":    c.Struct(c.Int(), c.Pointer(c.Long())),
		"void (int, ...)":   c.Function(c.Void(), []*Type{c.Int()}, true),
		"int (sbyte*)*":     c.Pointer(c.Function(c.Int(), []*Type{c.Pointer(c.SByte())}, false)),
		"[2 x [3 x float]]": c.Array(2, c.Array(3, c.Float())),
	}
	for want, ty := range cases {
		if got := ty.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestLayoutQuadTree(t *testing.T) {
	// The paper's Section 3.1 example: T[0].Children[3] is at byte 20
	// with 32-bit pointers and byte 32 with 64-bit pointers.
	c := ctx()
	qt := c.NamedStruct("QT")
	c.SetBody(qt, c.Double(), c.Array(4, c.Pointer(qt)))
	idx := []*Constant{
		NewInt(c.Long(), 0), NewUint(c.UByte(), 1), NewInt(c.Long(), 3),
	}
	if off, _ := (Layout{PointerSize: 8}).GEPOffset(qt, idx); off != 32 {
		t.Errorf("64-bit offset = %d, want 32", off)
	}
	if off, _ := (Layout{PointerSize: 4}).GEPOffset(qt, idx); off != 20 {
		t.Errorf("32-bit offset = %d, want 20", off)
	}
	if sz := (Layout{PointerSize: 8}).Size(qt); sz != 40 {
		t.Errorf("sizeof(QT) = %d with 64-bit pointers, want 40", sz)
	}
	if sz := (Layout{PointerSize: 4}).Size(qt); sz != 24 {
		t.Errorf("sizeof(QT) = %d with 32-bit pointers, want 24", sz)
	}
}

func TestLayoutAlignment(t *testing.T) {
	lay := Layout{PointerSize: 8}
	c := ctx()
	// { sbyte, double } pads the first field to 8.
	s := c.Struct(c.SByte(), c.Double())
	if lay.Size(s) != 16 {
		t.Errorf("size = %d, want 16", lay.Size(s))
	}
	if lay.FieldOffset(s, 1) != 8 {
		t.Errorf("field 1 offset = %d, want 8", lay.FieldOffset(s, 1))
	}
	// trailing padding keeps arrays of the struct aligned
	s2 := c.Struct(c.Double(), c.Int())
	if lay.Size(s2) != 16 {
		t.Errorf("size = %d, want 16 (trailing pad)", lay.Size(s2))
	}
}

func TestExactly28Opcodes(t *testing.T) {
	if NumOpcodes != 28 {
		t.Errorf("instruction set has %d opcodes; the paper's Table 1 lists exactly 28", NumOpcodes)
	}
	// Count per category as in Table 1.
	categories := map[string][]Opcode{
		"arithmetic":   {OpAdd, OpSub, OpMul, OpDiv, OpRem},
		"bitwise":      {OpAnd, OpOr, OpXor, OpShl, OpShr},
		"comparison":   {OpSetEQ, OpSetNE, OpSetLT, OpSetGT, OpSetLE, OpSetGE},
		"control-flow": {OpRet, OpBr, OpMbr, OpInvoke, OpUnwind},
		"memory":       {OpLoad, OpStore, OpGetElementPtr, OpAlloca},
		"other":        {OpCast, OpCall, OpPhi},
	}
	total := 0
	for _, ops := range categories {
		total += len(ops)
	}
	if total != 28 {
		t.Errorf("categories sum to %d, want 28", total)
	}
	for name, op := range OpcodeByName {
		if op.String() != name {
			t.Errorf("OpcodeByName[%q] round-trips to %q", name, op.String())
		}
	}
}

func TestDefaultExceptionsEnabled(t *testing.T) {
	// Paper Section 3.3: true by default for load, store and div; false
	// for all other operations.
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		want := op == OpLoad || op == OpStore || op == OpDiv
		if got := op.DefaultExceptionsEnabled(); got != want {
			t.Errorf("%s: DefaultExceptionsEnabled = %v, want %v", op, got, want)
		}
	}
}

func TestUseListsAndRAUW(t *testing.T) {
	m := NewModule("t")
	c := m.Types()
	f := m.NewFunction("f", c.Function(c.Int(), []*Type{c.Int()}, false))
	bb := f.NewBlock("entry")
	b := NewBuilder(f)
	b.SetBlock(bb)
	x := f.Params[0]
	a := b.Add(x, x, "a")
	mul := b.Mul(a, a, "m")
	b.Ret(mul)

	if a.NumUses() != 2 {
		t.Errorf("a has %d uses, want 2", a.NumUses())
	}
	if x.NumUses() != 2 {
		t.Errorf("x has %d uses, want 2", x.NumUses())
	}
	// Replace a with x everywhere.
	ReplaceAllUsesWith(a, x)
	if a.NumUses() != 0 {
		t.Errorf("a still has %d uses after RAUW", a.NumUses())
	}
	if x.NumUses() != 4 {
		t.Errorf("x has %d uses after RAUW, want 4", x.NumUses())
	}
	a.EraseFromParent()
	if got := len(bb.Instructions()); got != 2 {
		t.Errorf("block has %d instructions after erase, want 2", got)
	}
	if err := VerifyFunction(f); err != nil {
		t.Errorf("function invalid after RAUW+erase: %v", err)
	}
}

func TestVerifierCatchesBadIR(t *testing.T) {
	build := func(mutate func(m *Module, f *Function, b *Builder)) error {
		m := NewModule("bad")
		c := m.Types()
		f := m.NewFunction("f", c.Function(c.Int(), []*Type{c.Int()}, false))
		b := NewBuilder(f)
		b.SetBlock(f.NewBlock("entry"))
		mutate(m, f, b)
		return Verify(m)
	}

	// missing terminator
	if err := build(func(m *Module, f *Function, b *Builder) {
		b.Add(f.Params[0], f.Params[0], "x")
	}); err == nil {
		t.Error("verifier accepted a block without a terminator")
	}

	// type mismatch constructed behind the builder's back
	if err := build(func(m *Module, f *Function, b *Builder) {
		in := NewInstruction(OpAdd, m.Types().Int(),
			f.Params[0], NewInt(m.Types().Long(), 1))
		b.Block().Append(in)
		b.Ret(f.Params[0])
	}); err == nil {
		t.Error("verifier accepted mixed-type add (LLVA has no implicit coercion)")
	}

	// use before definition (dominance violation)
	if err := build(func(m *Module, f *Function, b *Builder) {
		entry := b.Block()
		other := f.NewBlock("other")
		b.SetBlock(other)
		v := b.Add(f.Params[0], f.Params[0], "v")
		b.Ret(v)
		b.SetBlock(entry)
		// entry uses v, but v is defined in 'other' which doesn't dominate
		w := b.Mul(v, v, "w")
		b.Ret(w)
		_ = w
	}); err == nil {
		t.Error("verifier accepted SSA dominance violation")
	}

	// return type mismatch
	if err := build(func(m *Module, f *Function, b *Builder) {
		b.Ret(NewInt(m.Types().Long(), 0))
	}); err == nil {
		t.Error("verifier accepted wrong return type")
	}
}

func TestVerifierPhiPredecessorAgreement(t *testing.T) {
	m := NewModule("t")
	c := m.Types()
	f := m.NewFunction("f", c.Function(c.Int(), []*Type{c.Bool()}, false))
	entry := f.NewBlock("entry")
	a := f.NewBlock("a")
	join := f.NewBlock("join")
	b := NewBuilder(f)
	b.SetBlock(entry)
	b.CondBr(f.Params[0], a, join)
	b.SetBlock(a)
	b.Br(join)
	b.SetBlock(join)
	phi := b.Phi(c.Int(), "p")
	phi.AddPhiIncoming(NewInt(c.Int(), 1), a)
	// missing incoming for entry
	b.Ret(phi)
	if err := Verify(m); err == nil {
		t.Error("verifier accepted phi with missing incoming edge")
	}
	phi.AddPhiIncoming(NewInt(c.Int(), 2), entry)
	if err := Verify(m); err != nil {
		t.Errorf("verifier rejected valid phi: %v", err)
	}
}

// TestFoldBinaryMatchesGoSemantics property-checks integer constant
// folding against Go's evaluation.
func TestFoldBinaryMatchesGoSemantics(t *testing.T) {
	c := ctx()
	long := c.Long()
	fn := func(a, b int64) bool {
		x, y := NewInt(long, a), NewInt(long, b)
		type caseT struct {
			op   Opcode
			want func(a, b int64) (int64, bool)
		}
		for _, tc := range []caseT{
			{OpAdd, func(a, b int64) (int64, bool) { return a + b, true }},
			{OpSub, func(a, b int64) (int64, bool) { return a - b, true }},
			{OpMul, func(a, b int64) (int64, bool) { return a * b, true }},
			{OpAnd, func(a, b int64) (int64, bool) { return a & b, true }},
			{OpOr, func(a, b int64) (int64, bool) { return a | b, true }},
			{OpXor, func(a, b int64) (int64, bool) { return a ^ b, true }},
			{OpDiv, func(a, b int64) (int64, bool) {
				if b == 0 || (a == math.MinInt64 && b == -1) {
					return 0, false
				}
				return a / b, true
			}},
			{OpRem, func(a, b int64) (int64, bool) {
				if b == 0 || (a == math.MinInt64 && b == -1) {
					return 0, false
				}
				return a % b, true
			}},
		} {
			got := FoldBinary(c, tc.op, x, y)
			want, foldable := tc.want(a, b)
			if !foldable {
				if got != nil {
					return false // must not fold trapping operations
				}
				continue
			}
			if got == nil || got.Int64() != want {
				return false
			}
		}
		// comparisons
		if FoldBinary(c, OpSetLT, x, y).I != boolBit(a < b) {
			return false
		}
		if FoldBinary(c, OpSetGE, x, y).I != boolBit(a >= b) {
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestFoldCastRoundTrip property-checks that widening an integer and
// casting back preserves the value.
func TestFoldCastRoundTrip(t *testing.T) {
	c := ctx()
	fn := func(v int32) bool {
		x := NewInt(c.Int(), int64(v))
		asLong := FoldCast(x, c.Long())
		if asLong == nil || asLong.Int64() != int64(v) {
			return false
		}
		back := FoldCast(asLong, c.Int())
		return back != nil && back.Int64() == int64(v)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// unsigned extension zero-extends
	ub := NewUint(c.UByte(), 0xFF)
	if got := FoldCast(ub, c.Long()); got.Int64() != 255 {
		t.Errorf("ubyte 255 -> long = %d, want 255", got.Int64())
	}
	// signed extension sign-extends
	sb := NewInt(c.SByte(), -1)
	if got := FoldCast(sb, c.Long()); got.Int64() != -1 {
		t.Errorf("sbyte -1 -> long = %d, want -1", got.Int64())
	}
}

func TestFoldShift(t *testing.T) {
	c := ctx()
	x := NewInt(c.Int(), -8)
	if got := FoldShift(OpShr, x, NewUint(c.UByte(), 1)); got.Int64() != -4 {
		t.Errorf("arithmetic shr(-8, 1) = %d, want -4", got.Int64())
	}
	u := NewUint(c.UInt(), 0x80000000)
	if got := FoldShift(OpShr, u, NewUint(c.UByte(), 31)); got.I != 1 {
		t.Errorf("logical shr = %d, want 1", got.I)
	}
	// over-wide shifts
	if got := FoldShift(OpShl, x, NewUint(c.UByte(), 40)); got.Int64() != 0 {
		t.Errorf("over-wide shl = %d, want 0", got.Int64())
	}
	if got := FoldShift(OpShr, x, NewUint(c.UByte(), 40)); got.Int64() != -1 {
		t.Errorf("over-wide signed shr of negative = %d, want -1", got.Int64())
	}
}

func TestConstantStringAndEquality(t *testing.T) {
	c := ctx()
	s1 := NewString(c, "hi")
	s2 := NewString(c, "hi")
	s3 := NewString(c, "ho")
	if !ConstantEqual(s1, s2) {
		t.Error("identical strings not equal")
	}
	if ConstantEqual(s1, s3) {
		t.Error("different strings equal")
	}
	if s1.Type().Len() != 3 {
		t.Errorf("string array length %d, want 3 (NUL terminated)", s1.Type().Len())
	}
	if !strings.Contains(s1.Ident(), "104") { // 'h'
		t.Errorf("string constant rendering: %s", s1.Ident())
	}
}

func TestModuleRemoveFunctionGlobal(t *testing.T) {
	m := NewModule("t")
	c := m.Types()
	g := m.NewGlobal("g", c.Int(), NewInt(c.Int(), 1), false)
	f := m.NewFunction("f", c.Function(c.Void(), nil, false))
	f.Internal = true
	m.RemoveGlobal(g)
	m.RemoveFunction(f)
	if m.Global("g") != nil || m.Function("f") != nil {
		t.Error("removal left lookups behind")
	}
	if len(m.Globals) != 0 || len(m.Functions) != 0 {
		t.Error("removal left slices behind")
	}
}

func TestInstructionMoveAndInsert(t *testing.T) {
	m := NewModule("t")
	c := m.Types()
	f := m.NewFunction("f", c.Function(c.Int(), []*Type{c.Int()}, false))
	b1 := f.NewBlock("b1")
	b2 := f.NewBlock("b2")
	b := NewBuilder(f)
	b.SetBlock(b1)
	v := b.Add(f.Params[0], f.Params[0], "v")
	b.Br(b2)
	b.SetBlock(b2)
	r := b.Mul(v, v, "r")
	b.Ret(r)

	v.MoveTo(b2)
	if v.Parent() != b2 || b1.Len() != 1 {
		t.Error("MoveTo did not relocate the instruction")
	}
	if b2.Instructions()[len(b2.Instructions())-1] != v {
		t.Error("MoveTo must append at the end")
	}
	// InsertBefore places an instruction ahead of another.
	v.removeFromBlock()
	v.parent = nil
	b2.InsertBefore(r, v)
	if b2.Instructions()[0] != v {
		t.Error("InsertBefore did not place v first")
	}
}
