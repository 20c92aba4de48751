package machine

import (
	"errors"
	"math"
	"strings"
	"testing"

	"llva/internal/asm"
	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/mem"
	"llva/internal/rt"
	"llva/internal/target"
)

func loadProgram(t *testing.T, src string, d *target.Desc) (*Machine, *strings.Builder) {
	t.Helper()
	m, err := asm.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
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
	var out strings.Builder
	env := rt.NewEnv(mem.New(0, true), &out)
	mc, err := New(d, m, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.LoadObject(obj); err != nil {
		t.Fatal(err)
	}
	return mc, &out
}

// TestUnmeteredRunArmsDefaultGas: a run that sets no gas budget carries
// DefaultGas, and each run its own: the second run on a machine, which
// starts with the first one's cycles on the clock, gets the whole budget
// again.
func TestUnmeteredRunArmsDefaultGas(t *testing.T) {
	src := `
int %seven() {
entry:
    ret int 7
}
`
	mc, _ := loadProgram(t, src, target.VX86)
	for run := 0; run < 2; run++ {
		start := mc.Stats.Cycles
		if _, err := mc.Run("seven"); err != nil {
			t.Fatal(err)
		}
		if mc.Stats.Cycles == start {
			t.Fatalf("run %d retired no cycles", run)
		}
		if mc.gasStart != start || mc.gasStop != start+DefaultGas {
			t.Errorf("run %d armed the window [%d, %d), want [%d, %d)",
				run, mc.gasStart, mc.gasStop, start, start+DefaultGas)
		}
	}
}

// TestExternStackArgFaultIsTrap: a vx86 extern call whose arguments lie
// off the end of memory is a memory-fault trap at the call, like any
// other guest access that faults, not a bare *mem.Fault.
func TestExternStackArgFaultIsTrap(t *testing.T) {
	mc := oracleMachine(t, target.VX86, true)
	adj, call := mi(target.MAdjSP), mi(target.MCallExt)
	adj.Imm = 64 + 8 // Run leaves SP 64 bytes and a return address below the top
	call.Sym, call.NArgs = "print_int", 1
	entry, err := mc.emit(adj, call, mi(target.MRet))
	if err != nil {
		t.Fatal(err)
	}
	mc.bind("f", entry)
	_, err = mc.Run("f")
	te, ok := err.(*TrapError)
	callPC := entry + uint64(len(encodeOne(target.VX86, &adj)))
	if !ok || te.Num != TrapMemoryFault || te.PC != callPC || !strings.HasPrefix(te.Mnemonic, "callext") {
		t.Fatalf("err = %#v, want a memory-fault trap at the callext (0x%x)", err, callPC)
	}
	if mc.Stats.Traps != 1 {
		t.Errorf("Stats.Traps = %d, want 1", mc.Stats.Traps)
	}
}

func TestICache(t *testing.T) {
	src := `
long %f(long %n) {
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i2, %loop ]
    %i2 = add long %i, 1
    %done = setge long %i2, %n
    br bool %done, label %exit, label %loop
exit:
    ret long %i2
}
`
	mc, _ := loadProgram(t, src, target.VSPARC)
	if _, err := mc.Run("f", 1000); err != nil {
		t.Fatal(err)
	}
	// The loop executes thousands of instructions but decodes each PC
	// once: fills must be far below executed count.
	if mc.Stats.ICacheFills >= mc.Stats.Instrs/10 {
		t.Errorf("icache ineffective: %d fills for %d instructions",
			mc.Stats.ICacheFills, mc.Stats.Instrs)
	}
}

func TestFPResult(t *testing.T) {
	src := `
double %h(double %x) {
entry:
    %y = mul double %x, %x
    ret double %y
}
`
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		mc, _ := loadProgram(t, src, d)
		if _, err := mc.Run("h", math.Float64bits(1.5)); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if got := math.Float64frombits(mc.FPResult()); got != 2.25 {
			t.Errorf("%s: h(1.5) = %v, want 2.25", d.Name, got)
		}
	}
}

func TestDivByZeroTrapsOnMachine(t *testing.T) {
	src := `
long %f(long %a, long %b) {
entry:
    %q = div long %a, %b
    ret long %q
}
`
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		mc, _ := loadProgram(t, src, d)
		_, err := mc.Run("f", 10, 0)
		te, ok := err.(*TrapError)
		if !ok || te.Num != TrapDivByZero {
			t.Errorf("%s: err = %v, want div-by-zero trap", d.Name, err)
		}
	}
}

func TestNullDerefTrapsOnMachine(t *testing.T) {
	src := `
long %f(long* %p) {
entry:
    %v = load long* %p
    ret long %v
}
`
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		mc, _ := loadProgram(t, src, d)
		_, err := mc.Run("f", 0)
		te, ok := err.(*TrapError)
		if !ok || te.Num != TrapMemoryFault {
			t.Errorf("%s: err = %v, want memory-fault trap", d.Name, err)
		}
	}
}

func TestPrivilegedIntrinsicOnMachine(t *testing.T) {
	src := `
declare void %llva.priv.set(bool %p)
declare bool %llva.priv.get()
int %main() {
entry:
    call void %llva.priv.set(bool false)
    %p = call bool %llva.priv.get()
    %pi = cast bool %p to int
    ;; this must trap: we are unprivileged now
    call void %llva.priv.set(bool true)
    ret int %pi
}
`
	mc, _ := loadProgram(t, src, target.VX86)
	_, err := mc.Run("main")
	te, ok := err.(*TrapError)
	if !ok || te.Num != TrapPrivilege {
		t.Errorf("err = %v, want privilege trap", err)
	}
}

// TestInstallDisp32 installs a vx86 load of a global through an absolute
// displacement: the loader adds the global's address to the encoded
// addend, and refuses, with a *target.RelocRangeError, an addend that
// takes the sum past the int32 range instead of truncating it.
func TestInstallDisp32(t *testing.T) {
	m, err := asm.Parse("t", `
%g = global [4 x int] zeroinitializer
int %f() {
entry:
    ret int 0
}
`)
	if err != nil {
		t.Fatal(err)
	}
	d := target.VX86
	mc, err := New(d, m, rt.NewEnv(mem.New(0, true), &strings.Builder{}))
	if err != nil {
		t.Fatal(err)
	}
	native := func(disp int32) *codegen.NativeFunc {
		nf := &codegen.NativeFunc{Name: "f"}
		for _, in := range []target.MInstr{
			{Op: target.MLoad, Rd: d.RetReg, Rs1: target.NoReg, Rs2: target.NoReg, Base: target.NoReg,
				Index: target.NoReg, Size: 4, Disp: disp, Sym: "g"},
			{Op: target.MRet, Rd: target.NoReg, Rs1: target.NoReg, Rs2: target.NoReg,
				Base: target.NoReg, Index: target.NoReg},
		} {
			start := uint32(len(nf.Code))
			var rl []target.Reloc
			nf.Code, rl = d.Encode(&in, nf.Code)
			for _, r := range rl {
				r.Offset += start
				nf.Relocs = append(nf.Relocs, r)
			}
		}
		return nf
	}
	addr, err := mc.InstallCode(native(8))
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := d.DecodeFrom(mc.code, int(addr-mc.codeBase))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(mc.globals["g"]) + 8; int64(in.Disp) != want {
		t.Errorf("installed displacement %#x, want @g+8 = %#x", in.Disp, want)
	}
	_, err = mc.InstallCode(native(math.MaxInt32))
	var re *target.RelocRangeError
	if !errors.As(err, &re) || re.Kind != target.RelocDisp32 {
		t.Errorf("install of @g+MaxInt32: err = %v, want a *target.RelocRangeError", err)
	}
}
