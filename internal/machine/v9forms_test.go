package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"llva/internal/core"
	"llva/internal/interp"
)

// TestV9FormsTable: the three SPARC V9 forms vsparc's translator uses —
// a branch on a register compared with zero, the [rs1 + rs2] address, and
// a leaf routine that keeps its return address in r3 — give the
// interpreter's results on vx86 and vsparc at tiers 1 and 2:
//
//   - every integer type, a pointer and a bool compared with zero on
//     either side under all six conditions, each branch laid out with its
//     true block next (the branch inverts), its false block next, and
//     through a block that only jumps (the branch is threaded), at the
//     type's minimum, -1, 0, 1 and maximum;
//   - loads and stores of 1-, 2-, 4- and 8-byte elements, signed and
//     unsigned, at indices -3, 0, 1 and the last, through a GEP used once,
//     used twice in its block, used in another block, and used in both;
//     and a !noexc load out of bounds, which reads 0;
//   - a leaf, a caller of it, and a function that catches an unwind.
func TestV9FormsTable(t *testing.T) {
	m := core.NewModule("v9forms")
	zeros := zeroCompares(m)
	mems := indexedAccesses(m)
	calls := leafAndCallers(m)
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
	check := func(row, fn string, args ...uint64) outcome {
		t.Helper()
		w, err := ip.Run(fn, args...)
		want := engineOutcome(t, row, "interpreter", w, err)
		for i, mc := range mcs {
			w, err := mc.Run(fn, args...)
			if got := engineOutcome(t, row, names[i], w, err); got != want {
				t.Errorf("%s: %s gives %v, the interpreter %v", row, names[i], got, want)
			}
		}
		return want
	}
	taken := 0
	for _, z := range zeros {
		for _, x := range z.values {
			row := fmt.Sprintf("%s %#x", z.desc, x)
			if check(row, z.name, x).word == 1 {
				taken++
			}
		}
	}
	if taken == 0 || taken == len(zeros)*5 {
		t.Errorf("%d zero-compare rows branch: the table misses an edge", taken)
	}
	for _, a := range mems {
		for _, i := range []int64{-3, 0, 1, arrayLen - 1 - arrayBase} {
			row := fmt.Sprintf("%s [%d]", a.desc, i)
			args := []uint64{uint64(i)}
			if a.valued {
				args = append(args, core.ScalarOf(a.ty).Canon(0x8182_8384_8586_8788+uint64(i)))
			}
			got := check(row, a.name, args...)
			if a.noexc && got != (outcome{}) {
				t.Errorf("%s: the interpreter reads %v out of bounds, want 0", row, got)
			}
		}
	}
	for _, fn := range calls {
		for _, x := range []int64{-5, 0, 7} {
			check(fmt.Sprintf("%s(%d)", fn, x), fn, uint64(x))
		}
	}
	t.Logf("%d zero compares, %d indexed accesses, %d call shapes", len(zeros), len(mems), len(calls))
}

// zeroCompare is a function of TestV9FormsTable returning 1 when its
// compare with zero holds, 0 when not.
type zeroCompare struct {
	name, desc string
	values     []uint64 // the arguments it is run with
}

// zeroCompares adds to m one function per operand type, condition, side
// of the zero and block layout.
func zeroCompares(m *core.Module) []zeroCompare {
	ctx := m.Types()
	types := []*core.Type{ctx.SByte(), ctx.UByte(), ctx.Short(), ctx.UShort(),
		ctx.Int(), ctx.UInt(), ctx.Long(), ctx.ULong(), ctx.Pointer(ctx.Long()), ctx.Bool()}
	ops := []core.Opcode{core.OpSetEQ, core.OpSetNE, core.OpSetLT, core.OpSetGT, core.OpSetLE, core.OpSetGE}
	var out []zeroCompare
	for _, ty := range types {
		var zero *core.Constant
		var values []uint64
		switch {
		case ty.Kind() == core.BoolKind:
			zero, values = core.NewBool(ty, false), []uint64{0, 1}
		case ty.Kind() == core.PointerKind:
			zero, values = core.NewNull(ty), []uint64{1 << 63, 1<<64 - 1, 0, 1, math.MaxInt64}
		default:
			sc := core.ScalarOf(ty)
			lo, hi := uint64(0), sc.Canon(1<<64-1)
			if ty.IsSigned() {
				lo, hi = sc.Canon(1<<(sc.Bits-1)), sc.Canon(1<<(sc.Bits-1)-1)
			}
			zero, values = core.NewUint(ty, 0), canonSet(ty, []uint64{lo, 1<<64 - 1, 0, 1, hi})
		}
		for _, op := range ops {
			for _, zeroLeft := range []bool{false, true} {
				for layout := 0; layout < 3; layout++ {
					z := zeroCompare{name: fmt.Sprintf("zc%d", len(out)), values: values}
					f := m.NewFunction(z.name, ctx.Function(ctx.Int(), []*core.Type{ty}, false))
					b := core.NewBuilder(f)
					entry := f.NewBlock("entry")
					var yes, no, via *core.BasicBlock
					switch layout {
					case 0: // the true block next: the branch inverts
						yes, no = f.NewBlock("yes"), f.NewBlock("no")
					case 1: // the false block next
						no, yes = f.NewBlock("no"), f.NewBlock("yes")
					default: // the true edge through a jump: it is threaded
						via, no, yes = f.NewBlock("via"), f.NewBlock("no"), f.NewBlock("yes")
					}
					b.SetBlock(entry)
					x, y := core.Value(f.Params[0]), core.Value(zero)
					side := "x, 0"
					if zeroLeft {
						x, y, side = y, x, "0, x"
					}
					c := map[core.Opcode]func(x, y core.Value, n string) *core.Instruction{
						core.OpSetEQ: b.SetEQ, core.OpSetNE: b.SetNE, core.OpSetLT: b.SetLT,
						core.OpSetGT: b.SetGT, core.OpSetLE: b.SetLE, core.OpSetGE: b.SetGE,
					}[op](x, y, "c")
					to := yes
					if via != nil {
						to = via
						b.SetBlock(via)
						b.Br(yes)
						b.SetBlock(entry)
					}
					b.CondBr(c, to, no)
					b.SetBlock(yes)
					b.Ret(core.NewInt(ctx.Int(), 1))
					b.SetBlock(no)
					b.Ret(core.NewInt(ctx.Int(), 0))
					z.desc = fmt.Sprintf("%s %s %s %s (layout %d)", z.name, op, ty, side, layout)
					out = append(out, z)
				}
			}
		}
	}
	return out
}

// The arrays indexedAccesses reads and writes: arrayLen elements, indexed
// from element arrayBase, so that index -3 is the first.
const (
	arrayLen  = 8
	arrayBase = 3
)

// indexedAccess is a function of TestV9FormsTable that loads (and some
// store) one element of an array through a GEP with a dynamic index.
type indexedAccess struct {
	name, desc string
	ty         *core.Type // the element's
	valued     bool       // takes a value to add to the element after its index
	noexc      bool       // loads out of bounds with exceptions disabled
}

// indexedAccesses adds to m, for every integer type, an initialised
// array and one function per way of using the element's GEP.
func indexedAccesses(m *core.Module) []indexedAccess {
	ctx := m.Types()
	var out []indexedAccess
	for _, ty := range []*core.Type{ctx.SByte(), ctx.UByte(), ctx.Short(), ctx.UShort(),
		ctx.Int(), ctx.UInt(), ctx.Long(), ctx.ULong()} {
		elems := make([]*core.Constant, arrayLen)
		for k := range elems {
			// Every byte differs, and the top bit of each is set half the time.
			elems[k] = core.NewUint(ty, core.ScalarOf(ty).Canon(0x0f1e_2d3c_4b5a_6978*uint64(k+1)))
		}
		arr := m.NewGlobal("arr_"+ty.String(), ctx.Array(arrayLen, ty),
			core.NewArray(ctx.Array(arrayLen, ty), elems), false)
		long := ctx.Long()
		for _, kind := range []string{"once", "twice", "next-block", "both-blocks", "noexc"} {
			a := indexedAccess{name: fmt.Sprintf("ix%d", len(out)), ty: ty,
				valued: kind == "twice", noexc: kind == "noexc"}
			a.desc = fmt.Sprintf("%s %s %s", a.name, ty, kind)
			params := []*core.Type{long}
			if a.valued {
				params = append(params, ty)
			}
			f := m.NewFunction(a.name, ctx.Function(long, params, false))
			b := core.NewBuilder(f)
			b.SetBlock(f.NewBlock("entry"))
			i := f.Params[0]
			var base core.Value = b.GEP(arr, []core.Value{core.NewInt(long, 0), core.NewInt(long, arrayBase)}, "base")
			if a.noexc {
				base = core.NewNull(ctx.Pointer(ty))
			}
			p := b.GEP(base, []core.Value{i}, "p")
			var x *core.Instruction
			switch kind {
			case "once", "noexc":
				x = b.Load(p, "x")
				x.ExceptionsEnabled = !a.noexc
			case "twice":
				x = b.Load(p, "x")
				b.Store(b.Add(x, f.Params[1], "y"), p)
			case "next-block":
				next := f.NewBlock("next")
				b.Br(next)
				b.SetBlock(next)
				x = b.Load(p, "x")
			case "both-blocks":
				x = b.Load(p, "x")
				next := f.NewBlock("next")
				b.Br(next)
				b.SetBlock(next)
				b.Store(b.Xor(x, core.NewUint(ty, 1), "y"), p)
			}
			b.Ret(b.Cast(x, long, "r"))
			out = append(out, a)
		}
	}
	return out
}

// leafAndCallers adds to m a leaf, a function calling it twice, and one
// that catches an unwind from a callee, and returns their names.
func leafAndCallers(m *core.Module) []string {
	ctx := m.Types()
	long := ctx.Long()
	sig := ctx.Function(long, []*core.Type{long}, false)

	leaf := m.NewFunction("leaf", sig)
	b := core.NewBuilder(leaf)
	b.SetBlock(leaf.NewBlock("entry"))
	b.Ret(b.Add(b.Mul(leaf.Params[0], core.NewInt(long, 3), "t"), core.NewInt(long, 1), "r"))

	caller := m.NewFunction("caller", sig)
	b = core.NewBuilder(caller)
	b.SetBlock(caller.NewBlock("entry"))
	a := b.Call(leaf, []core.Value{caller.Params[0]}, "a")
	c := b.Call(leaf, []core.Value{a}, "c")
	b.Ret(b.Add(a, c, "r"))

	thrower := m.NewFunction("thrower", sig)
	b = core.NewBuilder(thrower)
	entry, up, back := thrower.NewBlock("entry"), thrower.NewBlock("up"), thrower.NewBlock("back")
	b.SetBlock(entry)
	b.CondBr(b.SetLT(thrower.Params[0], core.NewInt(long, 0), "c"), up, back)
	b.SetBlock(up)
	b.Unwind()
	b.SetBlock(back)
	b.Ret(b.Call(caller, []core.Value{thrower.Params[0]}, "r"))

	catcher := m.NewFunction("catcher", sig)
	b = core.NewBuilder(catcher)
	entry, normal, handler := catcher.NewBlock("entry"), catcher.NewBlock("normal"), catcher.NewBlock("handler")
	b.SetBlock(entry)
	r := b.Invoke(thrower, []core.Value{catcher.Params[0]}, normal, handler, "r")
	b.SetBlock(normal)
	b.Ret(b.Add(r, core.NewInt(long, 100), "s"))
	b.SetBlock(handler)
	b.Ret(core.NewInt(long, -1))
	return []string{"leaf", "caller", "catcher"}
}
