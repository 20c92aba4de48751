package codegen_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"llva/internal/asm"
	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/machine"
	"llva/internal/mem"
	"llva/internal/minic"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/workloads"
)

func compileC(t *testing.T, src string) *core.Module {
	t.Helper()
	m, err := minic.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func runBoth(t *testing.T, m *core.Module, fn string, args ...uint64) map[string]uint64 {
	t.Helper()
	results := map[string]uint64{}
	var out strings.Builder
	ip, err := interp.New(m, &out)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ip.Run(fn, args...)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	results["interp"] = v
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		tr, err := codegen.New(d, m)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := tr.TranslateModule()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		env := rt.NewEnv(mem.New(0, true), &out)
		mc, err := machine.New(d, m, env)
		if err != nil {
			t.Fatal(err)
		}
		if err := mc.LoadObject(obj); err != nil {
			t.Fatal(err)
		}
		got, err := mc.Run(fn, args...)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		results[d.Name] = got
	}
	return results
}

func assertAgree(t *testing.T, results map[string]uint64) {
	t.Helper()
	want := results["interp"]
	for k, v := range results {
		if v != want {
			t.Errorf("%s = %#x, interp = %#x", k, v, want)
		}
	}
}

// TestHugeFrame forces frame displacements beyond vsparc's simm13
// displacement range (a 4 KiB local array plus dozens of locals),
// exercising the assembler-temporary address synthesis in spills and
// prologue.
func TestHugeFrame(t *testing.T) {
	var b strings.Builder
	b.WriteString("long %f(long %x) {\nentry:\n")
	b.WriteString("    %buf = alloca [512 x long]\n")
	// Chain of values long enough to spill under linear scan too.
	b.WriteString("    %v0 = add long %x, 1\n")
	for i := 1; i < 40; i++ {
		fmt.Fprintf(&b, "    %%v%d = add long %%v%d, %d\n", i, i-1, i)
	}
	// Touch the big buffer start and end.
	b.WriteString("    %p0 = getelementptr [512 x long]* %buf, long 0, long 0\n")
	b.WriteString("    store long %v39, long* %p0\n")
	b.WriteString("    %p511 = getelementptr [512 x long]* %buf, long 0, long 511\n")
	b.WriteString("    store long %v20, long* %p511\n")
	b.WriteString("    %a = load long* %p0\n")
	b.WriteString("    %bv = load long* %p511\n")
	// Keep every chain value live across the loads: sum them all.
	b.WriteString("    %s0 = add long %a, %bv\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "    %%s%d = add long %%s%d, %%v%d\n", i+1, i, i)
	}
	b.WriteString("    ret long %s40\n}\n")

	m, err := asm.Parse("huge", b.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	assertAgree(t, runBoth(t, m, "f", 7))
}

// TestSwitchWideCases: a switch on a long whose cases lie on both sides
// of each target's immediate range compares the ones inside as
// immediates and the rest, 1<<40 among them, through a register, and
// takes the same edge as the interpreter on every case and between them.
func TestSwitchWideCases(t *testing.T) {
	cases := []int64{1 << 40, -(1 << 40), 1 << 31, -(1 << 31) - 1, 4096, -4097, 4095, -4096, 7}
	var b strings.Builder
	b.WriteString("long %f(long %x) {\nentry:\n    mbr long %x, label %other [")
	for i, c := range cases {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " long %d, label %%c%d", c, i)
	}
	b.WriteString(" ]\n")
	for i := range cases {
		fmt.Fprintf(&b, "c%d:\n    ret long %d\n", i, 100+i)
	}
	b.WriteString("other:\n    ret long 999\n}\n")
	m, err := asm.Parse("switch", b.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		tr, err := codegen.New(d, m)
		if err != nil {
			t.Fatal(err)
		}
		nf, err := tr.TranslateFunction(m.Function("f"))
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		imm, reg := 0, 0
		for off := 0; off < len(nf.Code); {
			in, n, err := d.DecodeFrom(nf.Code, off)
			if err != nil {
				t.Fatal(err)
			}
			if in.Op == target.MCmp || in.Op == target.MSetCC {
				if in.HasImm {
					imm++
				} else {
					reg++
				}
			}
			off += n
		}
		if imm == 0 || reg == 0 {
			t.Errorf("%s: %d immediate and %d register compares, want some of each", d.Name, imm, reg)
		}
	}
	for _, c := range cases {
		for _, x := range []int64{c - 1, c, c + 1} {
			assertAgree(t, runBoth(t, m, "f", uint64(x)))
		}
	}
}

// TestManyArguments exceeds vsparc's six argument registers and vx86's
// comfort, forcing stack-passed arguments on both conventions.
func TestManyArguments(t *testing.T) {
	m := compileC(t, `
long f10(long a, long b, long c, long d, long e, long f, long g, long h, long i, long j) {
	return a + 2*b + 3*c + 4*d + 5*e + 6*f + 7*g + 8*h + 9*i + 10*j;
}
long wrap(long x) {
	return f10(x, x+1, x+2, x+3, x+4, x+5, x+6, x+7, x+8, x+9);
}`)
	assertAgree(t, runBoth(t, m, "wrap", 100))
}

// TestMixedFPIntArgs interleaves FP and integer parameters (separate
// register files on vsparc).
func TestMixedFPIntArgs(t *testing.T) {
	m := compileC(t, `
double mix(long a, double x, long b, double y, long c, double z) {
	return (double)(a + b + c) * x + y - z;
}
long driver(long s) {
	double r = mix(s, 2.0, s+1, 3.5, s+2, 0.5);
	return (long)r;
}`)
	assertAgree(t, runBoth(t, m, "driver", 10))
}

// TestFallthroughElision checks that an unconditional jump to the next
// block is removed during layout.
func TestFallthroughElision(t *testing.T) {
	src := `
long %f(long %x) {
entry:
    %c = setgt long %x, 0
    br bool %c, label %a, label %b
a:
    br label %b
b:
    %p = phi long [ 1, %entry ], [ 2, %a ]
    ret long %p
}
`
	m, err := asm.Parse("ft", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		tr, err := codegen.New(d, m)
		if err != nil {
			t.Fatal(err)
		}
		nf, err := tr.TranslateFunction(m.Function("f"))
		if err != nil {
			t.Fatal(err)
		}
		// Count decoded jumps: with elision, block a's jump to b (next in
		// layout) must be gone; only the conditional's fallthrough-jump
		// structure remains.
		jmps := 0
		off := 0
		for off < len(nf.Code) {
			in, n, err := d.DecodeFrom(nf.Code[off:], 0)
			if err != nil {
				t.Fatal(err)
			}
			if in.Op == target.MJmp {
				jmps++
			}
			off += n
		}
		if jmps > 1 {
			t.Errorf("%s: %d unconditional jumps survive, expected at most 1 (fallthrough elision)", d.Name, jmps)
		}
	}
	assertAgree(t, runBoth(t, m, "f", 5))
	assertAgree(t, runBoth(t, m, "f", ^uint64(3)))
}

// TestRejectWrongConfiguration: the translator must refuse object code
// whose configuration flags don't match the implementation (Section 3.2).
func TestRejectWrongConfiguration(t *testing.T) {
	src := `
target pointersize = 32
int %f() {
entry:
    ret int 0
}
`
	m, err := asm.Parse("cfg", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codegen.New(target.VX86, m); err == nil {
		t.Error("translator accepted 32-bit object code for a 64-bit implementation")
	}
	src2 := strings.Replace(src, "pointersize = 32", "endian = big", 1)
	m2, err := asm.Parse("cfg2", src2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codegen.New(target.VSPARC, m2); err == nil {
		t.Error("translator accepted big-endian object code")
	}
}

// TestDynamicAlloca exercises the SP-adjusting alloca path.
func TestDynamicAlloca(t *testing.T) {
	src := `
long %f(uint %n) {
entry:
    %arr = alloca long, uint %n
    br label %fill
fill:
    %i = phi long [ 0, %entry ], [ %i2, %fill ]
    %p = getelementptr long* %arr, long %i
    store long %i, long* %p
    %i2 = add long %i, 1
    %nl = cast uint %n to long
    %more = setlt long %i2, %nl
    br bool %more, label %fill, label %sum
sum:
    %j = phi long [ 0, %fill ], [ %j2, %sum ]
    %acc = phi long [ 0, %fill ], [ %acc2, %sum ]
    %q = getelementptr long* %arr, long %j
    %v = load long* %q
    %acc2 = add long %acc, %v
    %j2 = add long %j, 1
    %nl2 = cast uint %n to long
    %more2 = setlt long %j2, %nl2
    br bool %more2, label %sum, label %done
done:
    ret long %acc2
}
`
	m, err := asm.Parse("dyn", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, m, "f", 50)
	assertAgree(t, res)
	if int64(res["interp"]) != 1225 {
		t.Errorf("f(50) = %d, want 1225", int64(res["interp"]))
	}
}

// TestTranslateEveryOpcode compiles a module touching all 28 opcodes and
// confirms both targets translate with no emulation fallbacks (the
// paper's "all LLVA instructions are translated directly to native
// machine code - no emulation routines are used at all").
func TestTranslateEveryOpcode(t *testing.T) {
	src := `
declare void %print_int(long %v)

%glob = global long 5

long %callee(long %x) {
entry:
    ret long %x
}

void %thrower() {
entry:
    unwind
}

long %all(long %a, long %b) {
entry:
    %p = alloca long
    store long %a, long* %p
    %ld = load long* %p
    %add = add long %a, %b
    %sub = sub long %add, %b
    %mul = mul long %sub, 3
    %div = div long %mul, 2 !noexc
    %rem = rem long %div, 1000 !noexc
    %and = and long %rem, 255
    %or = or long %and, 16
    %xor = xor long %or, 5
    %shl = shl long %xor, ubyte 2
    %shr = shr long %shl, ubyte 1
    %eq = seteq long %shr, %a
    %ne = setne long %shr, %a
    %lt = setlt long %shr, %a
    %gt = setgt long %shr, %a
    %le = setle long %shr, %a
    %ge = setge long %shr, %a
    %c1 = cast bool %eq to long
    %c2 = cast bool %ne to long
    %c3 = cast bool %lt to long
    %c4 = cast bool %gt to long
    %c5 = cast bool %le to long
    %c6 = cast bool %ge to long
    %g = getelementptr long* %glob, long 0
    %gv = load long* %g
    %called = call long %callee(long %shr)
    invoke void %thrower() to label %never unwind label %handled
never:
    ret long 0
handled:
    br label %merge
merge:
    %m = phi long [ %called, %handled ]
    %sum1 = add long %m, %c1
    %sum2 = add long %sum1, %c2
    %sum3 = add long %sum2, %c3
    %sum4 = add long %sum3, %c4
    %sum5 = add long %sum4, %c5
    %sum6 = add long %sum5, %c6
    %sum7 = add long %sum6, %gv
    %sum8 = add long %sum7, %ld
    mbr long %sum8, label %other [ long 0, label %zero ]
zero:
    ret long -1
other:
    ret long %sum8
}
`
	m, err := asm.Parse("all", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	assertAgree(t, runBoth(t, m, "all", 41, 17))
}

// TestConcurrentTier1Translation translates one sealed module at tier 1
// for both targets from four goroutines at once, as llee's concurrent
// tier 1 and llva-serve's loads do, and holds every result to a lone
// translation's bytes. Translation reads the module's block and
// instruction numbers and writes none, so under -race (make race-short)
// this also shows it shares nothing it writes.
func TestConcurrentTier1Translation(t *testing.T) {
	i := slices.IndexFunc(workloads.All(), func(w *workloads.Workload) bool { return w.Name == "bc" })
	w := workloads.All()[i]
	m, err := w.CompileOptimized()
	if err != nil {
		t.Fatal(err)
	}
	encode := func(d *target.Desc) string {
		tr, err := codegen.New(d, m)
		if err != nil {
			t.Error(err)
			return ""
		}
		o, err := tr.TranslateModule()
		if err != nil {
			t.Error(err)
			return ""
		}
		var b strings.Builder
		for _, f := range o.Funcs {
			fmt.Fprintf(&b, "%s %x %v %x\n", f.Name, f.Code, f.Relocs, []byte(f.Blocks))
		}
		return b.String()
	}
	descs := []*target.Desc{target.VX86, target.VSPARC}
	want := make([]string, len(descs))
	for i, d := range descs {
		want[i] = encode(d)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for i, d := range descs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := encode(d); got != want[i] {
					t.Errorf("%s on %s: a concurrent translation differs from a lone one", w.Name, d.Name)
				}
			}()
		}
	}
	wg.Wait()
}

// TestLoopBodyWorkBuiltOnce pins what the selector keeps out of a loop
// body and what it leaves there. A constant whose materialization takes
// more than one instruction — a vsparc global address or wide integer,
// an FP constant on either target — is built once, after the entry
// block's parameter moves; a one-instruction one stays at its use
// (vsparc: 5000 and 10000). And the rem of a div's operands costs no
// second divide: it is x − q·y from the div's quotient, multiplied by the
// div's own divisor register.
func TestLoopBodyWorkBuiltOnce(t *testing.T) {
	src := `
%glob = global long 5

long %h(long %n) {
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i1, %loop ]
    %s = phi long [ 0, %entry ], [ %s5, %loop ]
    %x = xor long %i, 100000
    %g = load long* %glob
    %d = cast long %i to double
    %e = mul double %d, 1.5
    %ei = cast double %e to long
    %k = add long %x, 5000
    %q = div long %i, 10000
    %r = rem long %i, 10000
    %s1 = add long %s, %k
    %s2 = add long %s1, %g
    %s3 = add long %s2, %ei
    %s4 = add long %s3, %q
    %s5 = add long %s4, %r
    %i1 = add long %i, 1
    %c = setlt long %i1, %n
    br bool %c, label %loop, label %done
done:
    ret long %s5
}
`
	m, err := asm.Parse("builtonce", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	assertAgree(t, runBoth(t, m, "h", 20017))
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		tr, err := codegen.New(d, m)
		if err != nil {
			t.Fatal(err)
		}
		nf, err := tr.TranslateFunction(m.Function("h"))
		if err != nil {
			t.Fatal(err)
		}
		var movis, cvts, divides int
		for pos, end := int(nf.Blocks.Off(1)), int(nf.Blocks.Off(2)); pos < end; {
			in, n, err := d.DecodeFrom(nf.Code, pos)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case in.Op == target.MMovRI:
				movis++
			case in.Op == target.MCvt && in.Cvt == target.CvtBits:
				cvts++
			case in.Op == target.MALU && (in.Alu == target.ADiv || in.Alu == target.ARem):
				divides++
			}
			pos += n
		}
		wantMovis := 0
		if d == target.VSPARC {
			wantMovis = 2
		}
		if movis != wantMovis || cvts != 0 || divides != 1 {
			t.Errorf("%s loop body: %d movi, %d cvt.bits, %d divides; want %d, 0, 1",
				d.Name, movis, cvts, divides, wantMovis)
		}
	}
}
