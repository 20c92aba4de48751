package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/target"
)

// immEdges are constant right operands at the edges of the targets'
// immediate ranges: vsparc's simm13 [-4096, 4095] and vx86's int32, one
// past each edge included. Each is canonicalised to the operation's type,
// so a narrow type sees what its constants can hold.
var immEdges = []int64{-4097, -4096, -1, 1, 4095, 4096,
	math.MinInt32 - 1, math.MinInt32, math.MaxInt32, math.MaxInt32 + 1}

// TestImmediateRangeTable: every integer ALU op and compare whose right
// operand is a constant at an edge of a target's immediate range gives
// the folded word, or the same trap, on the interpreter and on vx86 and
// vsparc at tiers 1 and 2, at every integer width and signedness. A
// constant inside a target's range is the instruction's immediate
// (Desc.ImmFits), one outside goes through a register, so both sides of
// each edge are held. So are the div/rem pairs of divRemPairs.
func TestImmediateRangeTable(t *testing.T) {
	m := core.NewModule("immrange")
	ctx := m.Types()
	types := []*core.Type{ctx.SByte(), ctx.UByte(), ctx.Short(), ctx.UShort(),
		ctx.Int(), ctx.UInt(), ctx.Long(), ctx.ULong()}
	type row struct {
		name string
		op   core.Opcode
		c    *core.Constant // of the right operand's type
	}
	var rows []row
	for op := core.OpAdd; op <= core.OpSetGE; op++ {
		for _, ty := range types {
			cty := ty
			if op == core.OpShl || op == core.OpShr {
				cty = ctx.UByte()
			}
			ret := ty
			if op.IsComparison() {
				ret = ctx.Bool()
			}
			seen := map[uint64]bool{}
			for _, e := range immEdges {
				w := core.ScalarOf(cty).Canon(uint64(e))
				if seen[w] {
					continue
				}
				seen[w] = true
				c := core.NewUint(cty, w)
				name := fmt.Sprintf("f%d", len(rows))
				f := m.NewFunction(name, ctx.Function(ret, []*core.Type{ty}, false))
				b := core.NewBuilder(f)
				b.SetBlock(f.NewBlock("entry"))
				v := map[core.Opcode]func(x, y core.Value, n string) *core.Instruction{
					core.OpAdd: b.Add, core.OpSub: b.Sub, core.OpMul: b.Mul,
					core.OpDiv: b.Div, core.OpRem: b.Rem, core.OpAnd: b.And,
					core.OpOr: b.Or, core.OpXor: b.Xor, core.OpShl: b.Shl,
					core.OpShr: b.Shr, core.OpSetEQ: b.SetEQ, core.OpSetNE: b.SetNE,
					core.OpSetLT: b.SetLT, core.OpSetGT: b.SetGT, core.OpSetLE: b.SetLE,
					core.OpSetGE: b.SetGE,
				}[op](f.Params[0], c, "r")
				v.ExceptionsEnabled = true
				b.Ret(v)
				rows = append(rows, row{name: name, op: op, c: c})
			}
		}
	}
	pairs := divRemPairs(m)
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	ip, err := interp.New(m, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	mcs, names, err := tieredMachines(m)
	if err != nil {
		t.Fatal(err)
	}
	imms := 0
	for _, r := range rows {
		f := m.Function(r.name)
		ty := f.Params[0].Type()
		if w, _ := r.c.Word(); target.VSPARC.ImmFits(int64(w)) {
			imms++
		}
		for _, x := range canonSet(ty, []uint64{0, 1, 1<<64 - 1, 4095, 1<<64 - 4096, 4096,
			math.MaxInt32, 1<<64 - 1<<31, math.MaxInt64, 1 << 63, 0x1234_5678_9abc_def0}) {
			row := fmt.Sprintf("%s %s %#x, %s", r.op, ty, x, r.c.Ident())
			var folded *core.Constant
			if r.op == core.OpShl || r.op == core.OpShr {
				folded = core.FoldShift(r.op, constOf(ty, x), r.c)
			} else {
				folded = core.FoldBinary(ctx, r.op, constOf(ty, x), r.c)
			}
			w, err := ip.Run(r.name, x)
			want := engineOutcome(t, row, "interpreter", w, err)
			if fw, ok := wordOf(folded); want.trap == 0 && (!ok || fw != want.word) {
				t.Errorf("%s: folds to %v, the interpreter gives %v", row, folded, want)
			}
			for i, mc := range mcs {
				w, err := mc.Run(r.name, x)
				if got := engineOutcome(t, row, names[i], w, err); got != want {
					t.Errorf("%s: %s gives %v, the interpreter %v", row, names[i], got, want)
				}
			}
		}
	}
	t.Logf("%d functions, %d with a vsparc immediate", len(rows), imms)
	if imms == 0 || imms == len(rows) {
		t.Fatalf("%d of %d constants are vsparc immediates: the table misses one side of the range", imms, len(rows))
	}

	// The div/rem pairs: the interpreter computes both quotients, and so
	// every engine must, whatever it makes of the rem.
	for _, p := range pairs {
		f := m.Function(p.name)
		ty := f.Params[0].Type()
		for _, x := range canonSet(ty, []uint64{0, 1, 7, 1<<64 - 1, 4095, 1<<64 - 4096, 10000,
			1<<64 - 10001, math.MaxInt32, 1<<64 - 1<<31, math.MaxInt64, 1 << 63, 0x1234_5678_9abc_def0}) {
			argSets := [][]uint64{{x}}
			if p.param {
				argSets = nil
				for _, y := range canonSet(ty, []uint64{0, 1<<64 - 1, 7}) {
					argSets = append(argSets, []uint64{x, y})
				}
			}
			for _, args := range argSets {
				row := fmt.Sprintf("%s%#x", p.desc, args)
				w, err := ip.Run(p.name, args...)
				want := engineOutcome(t, row, "interpreter", w, err)
				for i, mc := range mcs {
					w, err := mc.Run(p.name, args...)
					if got := engineOutcome(t, row, names[i], w, err); got != want {
						t.Errorf("%s: %s gives %v, the interpreter %v", row, names[i], got, want)
					}
				}
			}
		}
	}
	t.Logf("%d div/rem pair functions", len(pairs))
}

// divRemPair is a function of TestImmediateRangeTable that computes the
// quotient and the remainder of one pair of operands and returns both,
// as q·1000003 + r.
type divRemPair struct {
	name, desc string
	param      bool // the divisor is the second parameter, not a constant
}

// divRemPairs adds to m, for every integer type, both orders of div and
// rem and every pair of their exception flags, one function for each
// constant divisor (1, -1, 2, 7, 4095, 4096, 10000 and the type's
// minimum, canonicalised) and one whose divisor is a parameter, passed 0,
// -1 and 7. The selector computes such a rem from its div's quotient
// where no fault can tell them apart (a div that traps first, or a
// constant divisor neither 0 nor 64-bit signed -1), and these rows hold
// it to the interpreter on the fault's side too.
func divRemPairs(m *core.Module) []divRemPair {
	ctx := m.Types()
	var out []divRemPair
	for _, ty := range []*core.Type{ctx.SByte(), ctx.UByte(), ctx.Short(), ctx.UShort(),
		ctx.Int(), ctx.UInt(), ctx.Long(), ctx.ULong()} {
		sc := core.ScalarOf(ty)
		minimum := uint64(0)
		if ty.IsSigned() {
			minimum = sc.Canon(1 << (sc.Bits - 1))
		}
		var divisors []core.Value
		seen := map[uint64]bool{}
		for _, c := range []uint64{1, 1<<64 - 1, 2, 7, 4095, 4096, 10000, minimum} {
			if w := sc.Canon(c); !seen[w] {
				seen[w] = true
				divisors = append(divisors, core.NewUint(ty, w))
			}
		}
		divisors = append(divisors, nil) // the parameter
		for _, c := range divisors {
			for _, remFirst := range []bool{false, true} {
				for flags := 0; flags < 4; flags++ {
					p := divRemPair{name: fmt.Sprintf("pair%d", len(out)), param: c == nil}
					params := []*core.Type{ty}
					if p.param {
						params = append(params, ty)
					}
					f := m.NewFunction(p.name, ctx.Function(ty, params, false))
					b := core.NewBuilder(f)
					b.SetBlock(f.NewBlock("entry"))
					x, y := core.Value(f.Params[0]), c
					if p.param {
						y = f.Params[1]
					}
					var q, r *core.Instruction
					if remFirst {
						r = b.Rem(x, y, "r")
						q = b.Div(x, y, "q")
					} else {
						q = b.Div(x, y, "q")
						r = b.Rem(x, y, "r")
					}
					q.ExceptionsEnabled, r.ExceptionsEnabled = flags&1 != 0, flags&2 != 0
					b.Ret(b.Add(b.Mul(q, core.NewUint(ty, 1000003), "qk"), r, "both"))
					divisor := "%y"
					if !p.param {
						divisor = c.(*core.Constant).Ident()
					}
					p.desc = fmt.Sprintf("%s %s div/rem %s (remFirst=%v, div exc=%v, rem exc=%v)",
						p.name, ty, divisor, remFirst, q.ExceptionsEnabled, r.ExceptionsEnabled)
					out = append(out, p)
				}
			}
		}
	}
	return out
}
