package codegen_test

import (
	"errors"
	"strings"
	"testing"

	"llva/internal/asm"
	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/target"
)

// v9Source holds a leaf with a compare with zero and an indexed load and
// store of one element, and a caller of it.
const v9Source = `
%tab = global [16 x int] zeroinitializer

long %leaf(long %i) {
entry:
    %p = getelementptr [16 x int]* %tab, long 0, long %i
    %x = load int* %p
    %y = add int %x, 1
    store int %y, int* %p
    %c = setlt int %x, 0
    br bool %c, label %neg, label %pos
neg:
    ret long 0
pos:
    %r = cast int %y to long
    ret long %r
}

long %caller(long %i) {
entry:
    %a = call long %leaf(long %i)
    %b = add long %a, 1
    ret long %b
}
`

// decodeAll decodes nf's code on d.
func decodeAll(t *testing.T, d *target.Desc, nf *codegen.NativeFunc) []target.MInstr {
	t.Helper()
	var out []target.MInstr
	for pos := 0; pos < len(nf.Code); {
		var in target.MInstr
		n, err := d.DecodeFrom(nf.Code, pos, &in)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
		pos += n
	}
	return out
}

// TestV9Forms: on vsparc a leaf keeps its return address in r3 (its
// prologue stores no r3, a caller's does and its epilogue reloads it), a
// compare with zero is a register branch (no setcc), and an element's
// GEP used twice in its block is [base + index] at both uses (no
// register-register add). Results are held by TestV9FormsTable in
// internal/machine.
func TestV9Forms(t *testing.T) {
	m, err := asm.Parse("v9", v9Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	tr, err := codegen.New(target.VSPARC, m)
	if err != nil {
		t.Fatal(err)
	}
	count := func(fn string, match func(in *target.MInstr) bool) int {
		nf, err := tr.TranslateFunction(m.Function(fn))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, in := range decodeAll(t, target.VSPARC, nf) {
			if match(&in) {
				n++
			}
		}
		return n
	}
	ra := func(op target.MOp) func(in *target.MInstr) bool {
		return func(in *target.MInstr) bool {
			return in.Op == op && (in.Rs1 == 3 && op == target.MStore || in.Rd == 3 && op == target.MLoad)
		}
	}
	if n := count("leaf", ra(target.MStore)); n != 0 {
		t.Errorf("the leaf stores r3 %d times, want 0", n)
	}
	if n := count("leaf", ra(target.MLoad)); n != 0 {
		t.Errorf("the leaf loads r3 %d times, want 0", n)
	}
	if s, l := count("caller", ra(target.MStore)), count("caller", ra(target.MLoad)); s != 1 || l != 1 {
		t.Errorf("the caller stores r3 %d and loads it %d times, want 1 and 1", s, l)
	}
	if n := count("leaf", func(in *target.MInstr) bool { return in.Op == target.MSetCC }); n != 0 {
		t.Errorf("the leaf has %d setcc, want none: x < 0 is a branch on x", n)
	}
	if n := count("leaf", func(in *target.MInstr) bool {
		return in.Op == target.MJcc && in.Cnd != target.CondNE && in.Cnd != target.CondEQ
	}); n != 1 {
		t.Errorf("the leaf has %d jcc on lt or ge, want 1", n)
	}
	if n := count("leaf", func(in *target.MInstr) bool {
		return (in.Op == target.MLoad || in.Op == target.MStore) && in.Index != target.NoReg && in.Scale == 1
	}); n != 2 {
		t.Errorf("the leaf has %d [base + index] accesses, want 2", n)
	}
	if n := count("leaf", func(in *target.MInstr) bool {
		return in.Op == target.MALU && in.Alu == target.AAdd && !in.HasImm && in.Size == 8
	}); n != 0 {
		t.Errorf("the leaf computes %d addresses with add, want 0", n)
	}
}

// TestAddressingFormRefused: a memory operand its target lacks is the
// translator's bug, and comes back from TranslateFunction as a
// *PanicError, as an out-of-range immediate does; vx86 has the form.
func TestAddressingFormRefused(t *testing.T) {
	m, err := asm.Parse("v9", v9Source)
	if err != nil {
		t.Fatal(err)
	}
	restore := codegen.WidenFirstLoad()
	defer restore()
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		tr, err := codegen.New(d, m)
		if err != nil {
			t.Fatal(err)
		}
		_, err = tr.TranslateFunction(m.Function("leaf"))
		var pe *codegen.PanicError
		switch {
		case d == target.VX86 && err != nil:
			t.Errorf("vx86: %v", err)
		case d == target.VSPARC && (!errors.As(err, &pe) || !strings.Contains(err.Error(), "addressing forms")):
			t.Errorf("vsparc: err = %v, want a *PanicError refusing the form", err)
		}
	}
}

// TestCheckErrorUnwraps: the *PanicError of a translation whose code
// Check refused unwraps to the *target.CheckError, naming the memory
// operand and the addressing rule.
func TestCheckErrorUnwraps(t *testing.T) {
	m, err := asm.Parse("v9", v9Source)
	if err != nil {
		t.Fatal(err)
	}
	restore := codegen.WidenFirstLoad()
	defer restore()
	tr, err := codegen.New(target.VSPARC, m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.TranslateFunction(m.Function("leaf"))
	var ce *target.CheckError
	if !errors.As(err, &ce) || ce.Field != target.FMem || ce.Rule != target.RuleAddr {
		t.Errorf("err = %v, want a *target.CheckError refusing the memory operand", err)
	}
}
