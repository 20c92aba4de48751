package machine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/mem"
	"llva/internal/prof"
	"llva/internal/rt"
	"llva/internal/target"
)

// FuzzScalarOp is the agreement gate on LLVA's scalar semantics: one
// operation on one scalar type, applied to two operand words, must give
// the same word folded (core.FoldBinary, FoldShift, FoldCast), on the
// interpreter, and on vx86 and vsparc at tier 1 and at tier 2. A faulting
// operation folds to nil and traps with the same trap number everywhere,
// or yields 0 everywhere when its exceptions are disabled.
//
// An input is (op, ty, x, y): op indexes the gate's ops, ty the operand
// type in its types, and x, y are raw words, canonicalised to their
// types. The seeds give every legal (op, type) pair each of its boundary
// operands once; TestScalarBoundaryTable holds every pair of them.
func FuzzScalarOp(f *testing.F) {
	h := scalarHarness(f)
	h.eachBoundary(func(op, ty int, xs, ys []uint64) {
		for i := range max(len(xs), len(ys)) {
			f.Add(uint8(op), uint8(ty), xs[i%len(xs)], ys[i%len(ys)])
		}
	})
	f.Fuzz(func(t *testing.T, op, ty uint8, x, y uint64) {
		if int(op) >= len(h.ops) || int(ty) >= len(h.types) || h.fn[op][ty][1] == "" {
			return
		}
		h.check(t, int(op), int(ty), x, y)
	})
}

// TestScalarBoundaryTable is FuzzScalarOp's check on the full boundary
// table: every legal (op, type) pair on every pair of its boundary
// operands.
func TestScalarBoundaryTable(t *testing.T) {
	h := scalarHarness(t)
	h.eachBoundary(func(op, ty int, xs, ys []uint64) {
		for _, x := range xs {
			for _, y := range ys {
				h.check(t, op, ty, x, y)
			}
		}
	})
}

// scalarOp is one operation FuzzScalarOp applies: a binary opcode, or a
// cast to one of scalarTypes.
type scalarOp struct {
	op core.Opcode
	to int // a cast's destination in scalarTypes
}

type scalarGate struct {
	m     *core.Module
	types []*core.Type
	ops   []scalarOp
	fn    [][][2]string // [op][ty][exceptions enabled]: the function's name, "" if illegal
	ip    *interp.Interp
	mcs   []*Machine // vx86 and vsparc, each at tier 1 and tier 2
	names []string
}

var (
	scalarOnce sync.Once
	scalarH    *scalarGate
	scalarErr  error
)

// scalarHarness builds the module of every legal (op, type) function
// once, translates it for both targets, profiles every function on tier 1
// and translates it again at tier 2 from that profile.
func scalarHarness(tb testing.TB) *scalarGate {
	scalarOnce.Do(func() { scalarH, scalarErr = buildScalarGate() })
	if scalarErr != nil {
		tb.Fatal(scalarErr)
	}
	return scalarH
}

func buildScalarGate() (*scalarGate, error) {
	m := core.NewModule("scalar")
	ctx := m.Types()
	h := &scalarGate{m: m, types: []*core.Type{ctx.Bool(), ctx.SByte(), ctx.UByte(),
		ctx.Short(), ctx.UShort(), ctx.Int(), ctx.UInt(), ctx.Long(), ctx.ULong(),
		ctx.Float(), ctx.Double()}}
	for op := core.OpAdd; op <= core.OpSetGE; op++ {
		h.ops = append(h.ops, scalarOp{op: op})
	}
	for to := range h.types {
		h.ops = append(h.ops, scalarOp{op: core.OpCast, to: to})
	}
	h.fn = make([][][2]string, len(h.ops))
	for oi, so := range h.ops {
		h.fn[oi] = make([][2]string, len(h.types))
		for ti, t := range h.types {
			if !legalScalarOp(so.op, t) {
				continue
			}
			for exc := 0; exc < 2; exc++ {
				name := fmt.Sprintf("f%d_%d_%d", oi, ti, exc)
				h.fn[oi][ti][exc] = name
				h.define(name, so, t, exc == 1)
			}
		}
	}
	if err := core.Verify(m); err != nil {
		return nil, err
	}
	var err error
	if h.ip, err = interp.New(m, &strings.Builder{}); err != nil {
		return nil, err
	}
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		tr, err := codegen.New(d, m)
		if err != nil {
			return nil, err
		}
		obj, err := tr.TranslateModule()
		if err != nil {
			return nil, err
		}
		t1, err := loadScalarMachine(d, m, obj)
		if err != nil {
			return nil, err
		}
		// Every function runs once under the profiler, so tier 2 lowers
		// every one of them.
		p := prof.NewProfiler(10)
		t1.SetProfiler(p)
		for _, f := range m.Functions {
			if _, err := t1.Run(f.Name(), 1, 1); err != nil {
				return nil, fmt.Errorf("%s: profile %s: %v", d.Name, f.Name(), err)
			}
		}
		t1.SetProfiler(nil)
		obj2, err := tr.WithTier2(p.Artifact(m.Name, d.Name)).TranslateModule()
		if err != nil {
			return nil, err
		}
		t2, err := loadScalarMachine(d, m, obj2)
		if err != nil {
			return nil, err
		}
		h.mcs = append(h.mcs, t1, t2)
		h.names = append(h.names, d.Name+" tier 1", d.Name+" tier 2")
	}
	return h, nil
}

func loadScalarMachine(d *target.Desc, m *core.Module, obj *codegen.NativeObject) (*Machine, error) {
	mc, err := New(d, m, rt.NewEnv(mem.New(0, m.LittleEndian), &strings.Builder{}))
	if err != nil {
		return nil, err
	}
	return mc, mc.LoadObject(obj)
}

// legalScalarOp reports whether the verifier admits op on operands of
// type t: arithmetic on numbers, bitwise ops on integers and bools,
// shifts on integers, comparisons and casts on every scalar.
func legalScalarOp(op core.Opcode, t *core.Type) bool {
	switch {
	case op <= core.OpRem:
		return t.IsInteger() || t.IsFloat()
	case op <= core.OpXor:
		return t.IsInteger() || t.Kind() == core.BoolKind
	case op <= core.OpShr:
		return t.IsInteger()
	}
	return true
}

// define adds %name(x, y) = x op y, or %name(x) = cast x.
func (h *scalarGate) define(name string, so scalarOp, t *core.Type, exc bool) {
	ctx := h.m.Types()
	params := []*core.Type{t, t}
	ret := t
	switch {
	case so.op == core.OpCast:
		params, ret = []*core.Type{t}, h.types[so.to]
	case so.op == core.OpShl || so.op == core.OpShr:
		params[1] = ctx.UByte()
	case so.op.IsComparison():
		ret = ctx.Bool()
	}
	f := h.m.NewFunction(name, ctx.Function(ret, params, false))
	b := core.NewBuilder(f)
	b.SetBlock(f.NewBlock("entry"))
	var v *core.Instruction
	if so.op == core.OpCast {
		v = b.Cast(f.Params[0], ret, "r")
	} else {
		x, y := f.Params[0], f.Params[1]
		v = map[core.Opcode]func(x, y core.Value, n string) *core.Instruction{
			core.OpAdd: b.Add, core.OpSub: b.Sub, core.OpMul: b.Mul,
			core.OpDiv: b.Div, core.OpRem: b.Rem, core.OpAnd: b.And,
			core.OpOr: b.Or, core.OpXor: b.Xor, core.OpShl: b.Shl,
			core.OpShr: b.Shr, core.OpSetEQ: b.SetEQ, core.OpSetNE: b.SetNE,
			core.OpSetLT: b.SetLT, core.OpSetGT: b.SetGT, core.OpSetLE: b.SetLE,
			core.OpSetGE: b.SetGE,
		}[so.op](x, y, "r")
	}
	v.ExceptionsEnabled = exc
	b.Ret(v)
}

// operandTypes are the types of an op's two operands on type t.
func (h *scalarGate) operandTypes(op int, t *core.Type) (*core.Type, *core.Type) {
	switch h.ops[op].op {
	case core.OpShl, core.OpShr:
		return t, h.m.Types().UByte()
	}
	return t, t
}

// constOf is the constant of type t whose word is w.
func constOf(t *core.Type, w uint64) *core.Constant {
	switch {
	case t.IsFloat():
		return core.NewFloat(t, math.Float64frombits(w))
	case t.Kind() == core.BoolKind:
		return core.NewBool(t, w&1 != 0)
	}
	return core.NewUint(t, w)
}

// outcome is what one engine made of an input: a word, or a trap number.
type outcome struct {
	word uint64
	trap uint64
}

func (o outcome) String() string {
	if o.trap != 0 {
		return fmt.Sprintf("trap %d", o.trap)
	}
	return fmt.Sprintf("%#x", o.word)
}

func (h *scalarGate) check(t *testing.T, op, ty int, x, y uint64) {
	t.Helper()
	so, typ := h.ops[op], h.types[ty]
	tx, tyy := h.operandTypes(op, typ)
	x, y = core.ScalarOf(tx).Canon(x), core.ScalarOf(tyy).Canon(y)
	args := []uint64{x, y}
	ret := h.m.Function(h.fn[op][ty][1]).Signature().Ret()
	row := fmt.Sprintf("%s %s %#x, %#x", so.op, typ, x, y)
	var folded *core.Constant
	switch so.op {
	case core.OpCast:
		args = args[:1]
		row = fmt.Sprintf("cast %s %#x to %s", typ, x, ret)
		folded = core.FoldCast(constOf(tx, x), ret)
	case core.OpShl, core.OpShr:
		folded = core.FoldShift(so.op, constOf(tx, x), constOf(tyy, y))
	default:
		folded = core.FoldBinary(h.m.Types(), so.op, constOf(tx, x), constOf(tyy, y))
	}

	w, err := h.ip.Run(h.fn[op][ty][1], args...)
	want := engineOutcome(t, row, "interpreter", w, err)
	fw, ok := wordOf(folded)
	switch {
	case want.trap != 0 && folded != nil:
		t.Errorf("%s: folds to %#x, the interpreter traps: %v", row, fw, want)
	case want.trap == 0 && !ok:
		t.Errorf("%s: does not fold, the interpreter gives %v", row, want)
	case want.trap == 0 && fw != want.word:
		t.Errorf("%s: folds to %#x, the interpreter gives %v", row, fw, want)
	}
	h.runAll(t, row, h.fn[op][ty][1], args, ret, want)

	// With exceptions disabled a faulting operation is 0, and any other
	// is what it was.
	w, err = h.ip.Run(h.fn[op][ty][0], args...)
	noexc := engineOutcome(t, row, "interpreter", w, err)
	if want.trap != 0 {
		want = outcome{}
	}
	if noexc != want {
		t.Errorf("%s !noexc: the interpreter gives %v, want %v", row, noexc, want)
	}
	h.runAll(t, row+" !noexc", h.fn[op][ty][0], args, ret, want)
}

// runAll holds every machine's run of %name(args) to want.
func (h *scalarGate) runAll(t *testing.T, row, name string, args []uint64, ret *core.Type, want outcome) {
	t.Helper()
	for i, mc := range h.mcs {
		w, err := mc.Run(name, args...)
		if ret.IsFloat() {
			w = mc.FPResult()
		}
		if got := engineOutcome(t, row, h.names[i], w, err); got != want {
			t.Errorf("%s: %s gives %v, the interpreter %v", row, h.names[i], got, want)
		}
	}
}

// wordOf is a folded constant's word.
func wordOf(c *core.Constant) (uint64, bool) {
	if c == nil {
		return 0, false
	}
	return c.Word()
}

// engineOutcome is a run's result as an outcome: its word, or the number
// of the divide-by-zero trap it took. Any other error fails the test.
func engineOutcome(t *testing.T, row, engine string, w uint64, err error) outcome {
	t.Helper()
	var it *interp.TrapError
	var mt *TrapError
	switch {
	case err == nil:
		return outcome{word: w}
	case errors.As(err, &it):
		return outcome{trap: it.Num}
	case errors.As(err, &mt):
		return outcome{trap: mt.Num}
	}
	t.Fatalf("%s: %s: %v", row, engine, err)
	return outcome{}
}

// Boundary operands: 0, ±1, each width's limits, MinInt64 (whose word is
// 2^63), 2^64-1, and as floats also ±Inf, NaN, -0, ±1e30, 2^63, 2^64 and
// the float limits.
var (
	intBoundaries = []uint64{0, 1, 1<<64 - 1, 127, 1<<64 - 128, 255, 32767,
		1<<64 - 32768, 65535, math.MaxInt32, 1<<64 - 1<<31, math.MaxUint32,
		math.MaxInt64, 1 << 63}
	floatBoundaries = floatWords(0, math.Copysign(0, -1), 1, -1, math.Inf(1),
		math.Inf(-1), math.NaN(), 1e30, -1e30, 0x1p63, 0x1p64, -0x1p63, 0x1p31,
		255.9, -128.5, math.MaxFloat32, math.MaxFloat64, math.SmallestNonzeroFloat64)
)

func floatWords(fs ...float64) []uint64 {
	ws := make([]uint64, len(fs))
	for i, f := range fs {
		ws[i] = math.Float64bits(f)
	}
	return ws
}

// eachBoundary calls fn with every legal (op, type) pair and its
// boundary operands: the first operand's, and the second's (one zero
// word for a cast, which has none; for a shift, amounts around each width
// and 255).
func (h *scalarGate) eachBoundary(fn func(op, ty int, xs, ys []uint64)) {
	for op, so := range h.ops {
		for ty, t := range h.types {
			if h.fn[op][ty][1] == "" {
				continue
			}
			xs := intBoundaries
			if t.IsFloat() {
				xs = floatBoundaries
			}
			xs = canonSet(t, xs)
			switch so.op {
			case core.OpCast:
				fn(op, ty, xs, []uint64{0})
			case core.OpShl, core.OpShr:
				fn(op, ty, xs, []uint64{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255})
			default:
				fn(op, ty, xs, xs)
			}
		}
	}
}

// canonSet is ws canonicalised to t, without duplicates.
func canonSet(t *core.Type, ws []uint64) []uint64 {
	s := core.ScalarOf(t)
	var out []uint64
	seen := map[uint64]bool{}
	for _, w := range ws {
		if c := s.Canon(w); !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
