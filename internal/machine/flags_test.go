package machine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/mem"
	"llva/internal/prof"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/workloads"
)

// flagsType is one integer type of the flags table: its LLVA name, and
// the results an op of it is steered to (0, 1, -1, min and max, as
// constants of the type).
type flagsType struct {
	name    string
	bits    uint
	signed  bool
	results []string
}

func flagsTypes() (ts []flagsType) {
	for _, bits := range []uint{8, 16, 32, 64} {
		names := map[uint][2]string{8: {"sbyte", "ubyte"}, 16: {"short", "ushort"},
			32: {"int", "uint"}, 64: {"long", "ulong"}}[bits]
		max := uint64(1)<<(bits-1) - 1
		ts = append(ts, flagsType{names[0], bits, true, []string{"0", "1", "-1",
			fmt.Sprint(-int64(max) - 1), fmt.Sprint(max)}})
		umax := uint64(1)<<bits - 1
		if bits == 64 {
			umax = ^uint64(0)
		}
		ts = append(ts, flagsType{names[1], bits, false, []string{"0", "1", fmt.Sprint(umax),
			fmt.Sprint(umax - 1), fmt.Sprint(umax >> 1)}})
	}
	return ts
}

// flagsOps are the ops a vx86 ALU op sets the flags on, as LLVA opcodes,
// and for each how its operands are chosen so that it yields a result:
// the second operand, and the first as a function of the result. The
// shifts shift by the constant 1.
var flagsOps = []struct {
	op     string
	second string
	first  func(v uint64, bits uint) uint64
}{
	{"add", "1", func(v uint64, _ uint) uint64 { return v - 1 }},
	{"sub", "1", func(v uint64, _ uint) uint64 { return v + 1 }},
	{"and", "-1", func(v uint64, _ uint) uint64 { return v }},
	{"or", "0", func(v uint64, _ uint) uint64 { return v }},
	{"xor", "5", func(v uint64, _ uint) uint64 { return v ^ 5 }},
	{"shl", "", func(v uint64, _ uint) uint64 { return v >> 1 }},
	{"shr", "", func(v uint64, _ uint) uint64 { return v << 1 }},
}

// flagsConds are the compares with zero the table branches on.
var flagsConds = []string{"seteq", "setne", "setlt", "setge", "setgt", "setle"}

// The three paths into a compare with zero: straight from the op
// (entry), around a loop whose body ends in the op, sunk past the
// counter's increment, and whose test the entry also reaches by a jump
// (loop), and with a call (call) or an ALU op that reads the result
// (alu) between op and compare, where the compare must stay.
var flagsPaths = []string{"entry", "loop", "call", "alu"}

// flagsModule is one (op, type) row set of the flags table: a function
// per condition and path, and a main that calls each with operands that
// steer the op to every result and prints what it returns.
func flagsModule(ty flagsType, opIdx int) string {
	o := flagsOps[opIdx]
	t := ty.name
	opnd := func(x string) string {
		if o.second == "" {
			return fmt.Sprintf("%s %s %s, ubyte 1", o.op, t, x)
		}
		second := o.second
		if second == "-1" && !ty.signed {
			second = fmt.Sprint(uint64(1)<<ty.bits - 1)
			if ty.bits == 64 {
				second = fmt.Sprint(^uint64(0))
			}
		}
		return fmt.Sprintf("%s %s %s, %s", o.op, t, x, second)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "declare void %%print_int(long)\ndeclare void %%print_nl()\n\n")
	fmt.Fprintf(&b, "void %%nothing() {\n0:\n    ret void\n}\n\n")
	for _, cond := range flagsConds {
		for _, path := range flagsPaths {
			fmt.Fprintf(&b, "long %%%s_%s(%s %%a) {\n0:\n    %%x0 = %s\n", path, cond, t, opnd("%a"))
			switch path {
			case "entry":
				fmt.Fprintf(&b, "    %%c = %s %s %%x0, 0\n    br bool %%c, label %%yes, label %%no\n", cond, t)
				fmt.Fprintf(&b, "yes:\n    ret long 1\nno:\n    ret long 0\n}\n\n")
			case "loop":
				fmt.Fprintf(&b, "    br label %%test\nbody:\n    %%x1 = %s\n    %%n1 = add long %%n, 1\n    br label %%test\n", opnd("%x"))
				fmt.Fprintf(&b, "test:\n    %%n = phi long [ 0, %%0 ], [ %%n1, %%body ]\n    %%x = phi %s [ %%x0, %%0 ], [ %%x1, %%body ]\n", t)
				fmt.Fprintf(&b, "    %%c = %s %s %%x, 0\n    br bool %%c, label %%guard, label %%exit\n", cond, t)
				fmt.Fprintf(&b, "guard:\n    %%g = setlt long %%n, 3\n    br bool %%g, label %%body, label %%exit\n")
				fmt.Fprintf(&b, "exit:\n    ret long %%n\n}\n\n")
			case "call":
				fmt.Fprintf(&b, "    call void %%nothing()\n    %%c = %s %s %%x0, 0\n    br bool %%c, label %%yes, label %%no\n", cond, t)
				fmt.Fprintf(&b, "yes:\n    ret long 1\nno:\n    ret long 0\n}\n\n")
			case "alu":
				fmt.Fprintf(&b, "    %%y = add %s %%x0, 3\n    %%c = %s %s %%x0, 0\n    br bool %%c, label %%yes, label %%no\n", t, cond, t)
				fmt.Fprintf(&b, "yes:\n    %%yl = cast %s %%y to long\n    ret long %%yl\nno:\n    ret long -7\n}\n\n", t)
			}
		}
	}
	fmt.Fprintf(&b, "int %%main() {\n0:\n")
	k := 0
	for _, cond := range flagsConds {
		for _, path := range flagsPaths {
			for _, res := range ty.results {
				v := parseWord(res)
				a := o.first(v, ty.bits)
				fmt.Fprintf(&b, "    %%r%d = call long %%%s_%s(%s %s)\n    call void %%print_int(long %%r%d)\n",
					k, path, cond, t, typedConst(a, ty), k)
				k++
			}
			fmt.Fprintf(&b, "    call void %%print_nl()\n")
		}
	}
	fmt.Fprintf(&b, "    ret int 0\n}\n")
	return b.String()
}

// parseWord reads a decimal constant as a 64-bit word.
func parseWord(s string) uint64 {
	var u uint64
	if _, err := fmt.Sscan(s, &u); err == nil {
		return u
	}
	var i int64
	fmt.Sscan(s, &i)
	return uint64(i)
}

// typedConst prints the low bits of v as a constant of ty.
func typedConst(v uint64, ty flagsType) string {
	if ty.bits < 64 {
		v &= uint64(1)<<ty.bits - 1
	}
	if !ty.signed {
		return fmt.Sprint(v)
	}
	shift := 64 - ty.bits
	return fmt.Sprint(int64(v<<shift) >> shift)
}

// flagsFire reports whether the flags pass must delete the compare of a
// function of the table: on the entry and loop paths, under eq and ne
// always, and under an ordered condition after an and, or or xor of a
// signed type.
func flagsFire(op string, ty flagsType, path, cond string) bool {
	if path != "entry" && path != "loop" {
		return false
	}
	if cond == "seteq" || cond == "setne" {
		return true
	}
	return ty.signed && (op == "and" || op == "or" || op == "xor")
}

// TestFlagsTable holds vx86's flag-setting ALU ops to the interpreter
// at tiers 1 and 2, on the engine and on the reference evaluator in x86
// mode: every op the flags pass may mark, at every integer type,
// branching on its result compared with zero under every condition, with
// results 0, 1, -1, min and max, on the entry path, the loop path and
// past a call or a dependent ALU op. At tier 1 the function's code has a
// flag-setting op exactly where flagsFire says the compare goes.
func TestFlagsTable(t *testing.T) {
	d := target.VX86
	for _, ty := range flagsTypes() {
		for oi, o := range flagsOps {
			name := o.op + "/" + ty.name
			src := flagsModule(ty, oi)
			m, err := parseAsm(src)
			if err == nil {
				err = core.Verify(m)
			}
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, src)
			}
			var want strings.Builder
			ip, err := interp.New(m, &want)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ip.RunMain(); err != nil {
				t.Fatalf("%s: interpreter: %v", name, err)
			}
			tr, err := codegen.New(d, m)
			if err != nil {
				t.Fatal(err)
			}
			obj, err := tr.TranslateModule()
			if err != nil {
				t.Fatal(err)
			}
			for _, cond := range flagsConds {
				for _, path := range flagsPaths {
					fn := path + "_" + cond
					marked := countSetsFlags(t, d, obj.Func(fn))
					if fire := flagsFire(o.op, ty, path, cond); fire != (marked > 0) {
						t.Errorf("%s %s: %d flag-setting ops, want the compare deleted: %v", name, fn, marked, fire)
					}
				}
			}
			p := prof.NewProfiler(10)
			for tier := 1; tier <= 2; tier++ {
				var out strings.Builder
				mc, err := New(d, m, rt.NewEnv(mem.New(0, true), &out))
				if err != nil {
					t.Fatal(err)
				}
				if err := mc.LoadObject(obj); err != nil {
					t.Fatal(err)
				}
				if tier == 1 {
					mc.SetProfiler(p)
				}
				if _, err := mc.Run("main"); err != nil {
					t.Fatalf("%s tier %d: %v", name, tier, err)
				}
				if out.String() != want.String() {
					t.Errorf("%s tier %d prints\n%s\nthe interpreter\n%s", name, tier, out.String(), want.String())
				}
				var refOut strings.Builder
				ref, err := New(d, m, rt.NewEnv(mem.New(0, true), &refOut))
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.LoadObject(obj); err != nil {
					t.Fatal(err)
				}
				if _, err := (&refCPU{Machine: ref, x86: true}).run("main", 2*mc.Stats.Instrs); err != nil ||
					refOut.String() != want.String() {
					t.Errorf("%s tier %d: the x86 reference prints\n%s\n(%v), the interpreter\n%s",
						name, tier, refOut.String(), err, want.String())
				}
				if obj, err = tr.WithTier2(p.Artifact(m.Name, d.Name)).TranslateModule(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// countSetsFlags counts nf's flag-setting instructions.
func countSetsFlags(t *testing.T, d *target.Desc, nf *codegen.NativeFunc) (n int) {
	t.Helper()
	var in target.MInstr
	for pos := 0; pos < len(nf.Code); {
		k, err := d.DecodeFrom(nf.Code, pos, &in)
		if err != nil {
			t.Fatalf("%s+%d: %v", nf.Name, pos, err)
		}
		if in.SetsFlags {
			n++
		}
		pos += k
	}
	return n
}

// TestX86FlagsRule runs the suite's vx86 code, tier 1 and tier 2, on the
// reference evaluator in x86 mode, where every ALU op x86 sets the flags
// on sets them, marked or not, and multiplies, divides, stack
// adjustments and calls scramble them (refCPU). Output and counters must
// be the engine's: no branch reads flags an op it does not expect wrote.
func TestX86FlagsRule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload suite on the reference evaluator")
	}
	d := target.VX86
	for _, w := range workloads.All() {
		m, err := w.CompileOptimized()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := codegen.New(d, m)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := tr.TranslateModule()
		if err != nil {
			t.Fatal(err)
		}
		p := prof.NewProfiler(0)
		for tier := 1; tier <= 2; tier++ {
			var out, refOut strings.Builder
			eng, err := New(d, m, rt.NewEnv(mem.New(0, true), &out))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(d, m, rt.NewEnv(mem.New(0, true), &refOut))
			if err != nil {
				t.Fatal(err)
			}
			for _, mc := range []*Machine{eng, ref} {
				if err := mc.LoadObject(obj); err != nil {
					t.Fatal(err)
				}
			}
			if tier == 1 {
				eng.SetProfiler(p)
			}
			rc := &refCPU{Machine: ref, x86: true}
			engRet, engErr := eng.Run("main")
			refRet, refErr := rc.run("main", 2*eng.Stats.Instrs)
			if !errors.Is(engErr, rt.ErrExit) || !errors.Is(refErr, rt.ErrExit) {
				if engErr != nil || refErr != nil {
					t.Fatalf("%s tier %d: engine %v, x86 reference %v", w.Name, tier, engErr, refErr)
				}
			}
			es, rs := eng.Stats, ref.Stats
			es.BlockBuilds, es.BlockChains, es.ICacheFills = 0, 0, 0
			if out.String() != refOut.String() || engRet != refRet || es != rs {
				t.Errorf("%s tier %d: engine returns %d, %+v, prints %q; x86 reference %d, %+v, %q",
					w.Name, tier, engRet, es, out.String(), refRet, rs, refOut.String())
			}
			if obj, err = tr.WithTier2(p.Artifact(m.Name, d.Name)).TranslateModule(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
