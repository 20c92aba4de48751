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
// each edge are held.
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
}
