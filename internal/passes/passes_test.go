package passes

import (
	"strings"
	"testing"

	"llva/internal/asm"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/minic"
)

// programs exercising every pass, each printing deterministic output.
var testPrograms = map[string]string{
	"loops": `
int main() {
	int i, sum = 0;
	for (i = 0; i < 100; i++) {
		int invariant = 37 * 41;     /* licm + constprop */
		sum += i * invariant;
	}
	print_int(sum); print_nl();
	return 0;
}`,
	"calls": `
static int square(int x) { return x * x; }
static int cube(int x) { return x * square(x); }
int main() {
	int i, acc = 0;
	for (i = 1; i <= 10; i++) acc += cube(i);
	print_int(acc); print_nl();
	return 0;
}`,
	"memory": `
struct P { int x; int y; };
int main() {
	struct P pts[8];
	int i;
	for (i = 0; i < 8; i++) { pts[i].x = i; pts[i].y = i * i; }
	int best = 0;
	for (i = 0; i < 8; i++) {
		if (pts[i].y - pts[i].x > best) best = pts[i].y - pts[i].x;
	}
	print_int(best); print_nl();
	return 0;
}`,
	"branches": `
int categorize(int x) {
	switch (x % 5) {
	case 0: return 1;
	case 1: return 2;
	case 2: return 4;
	case 3: return 8;
	default: return 16;
	}
}
int main() {
	int i, bits = 0;
	for (i = 0; i < 25; i++) bits += categorize(i);
	print_int(bits); print_nl();
	return 0;
}`,
	"strength": `
int main() {
	unsigned int x = 1000;
	unsigned int a = x * 8;      /* -> shl */
	unsigned int b = x / 4;      /* -> shr */
	unsigned int c = x % 16;     /* -> and */
	print_uint(a + b + c); print_nl();
	return 0;
}`,
	"floats": `
double series(int n) {
	double s = 0.0;
	int i;
	for (i = 1; i <= n; i++) s += 1.0 / (double)(i * i);
	return s;
}
int main() {
	print_float(series(50)); print_nl();
	return 0;
}`,
}

func runModule(t *testing.T, m *core.Module) string {
	t.Helper()
	var out strings.Builder
	ip, err := interp.New(m, &out)
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	if _, err := ip.RunMain(); err != nil {
		t.Fatalf("run: %v\noutput: %s", err, out.String())
	}
	return out.String()
}

// TestO2PreservesSemantics compiles each program, captures its output,
// optimizes with the full pipeline (verifying after every pass), and
// checks the output is unchanged.
func TestO2PreservesSemantics(t *testing.T) {
	for name, src := range testPrograms {
		t.Run(name, func(t *testing.T) {
			m1, err := minic.Compile(name+".c", src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			before := runModule(t, m1)

			m2, err := minic.Compile(name+".c", src)
			if err != nil {
				t.Fatal(err)
			}
			pipe := O2()
			pipe.Verify = true
			s := NewStats()
			if _, err := pipe.Run(m2, s); err != nil {
				t.Fatalf("pipeline: %v", err)
			}
			after := runModule(t, m2)
			if before != after {
				t.Errorf("output changed:\nbefore: %q\nafter:  %q\nstats:\n%s",
					before, after, s)
			}
		})
	}
}

// TestO2Shrinks checks the pipeline actually reduces instruction counts on
// alloca-heavy front-end output.
func TestO2Shrinks(t *testing.T) {
	m, err := minic.Compile("t.c", testPrograms["calls"])
	if err != nil {
		t.Fatal(err)
	}
	before := 0
	for _, f := range m.Functions {
		before += f.NumInstructions()
	}
	s := NewStats()
	if _, err := O2().Run(m, s); err != nil {
		t.Fatal(err)
	}
	after := 0
	for _, f := range m.Functions {
		after += f.NumInstructions()
	}
	if after >= before {
		t.Errorf("O2 did not shrink the program: %d -> %d\n%s", before, after, s)
	}
	if s.Counts["mem2reg.promoted"] == 0 {
		t.Error("mem2reg promoted nothing")
	}
	if s.Counts["inline.sites"] == 0 {
		t.Error("inliner fired at no site")
	}
}

func TestMem2RegPromotesFigure2Style(t *testing.T) {
	src := `
int %f(int %x) {
entry:
    %a = alloca int
    store int %x, int* %a
    %c = setgt int %x, 10
    br bool %c, label %big, label %small
big:
    %v1 = load int* %a
    %v2 = mul int %v1, 2
    store int %v2, int* %a
    br label %join
small:
    br label %join
join:
    %r = load int* %a
    ret int %r
}
`
	m, err := asm.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStats()
	Mem2Reg(m, s)
	if err := core.Verify(m); err != nil {
		t.Fatalf("verify after mem2reg: %v", err)
	}
	f := m.Function("f")
	for _, bb := range f.Blocks {
		for _, in := range bb.Instructions() {
			if in.Op() == core.OpAlloca || in.Op() == core.OpLoad || in.Op() == core.OpStore {
				t.Errorf("mem2reg left %s in %%%s", in.Op(), bb.Name())
			}
		}
	}
	// A phi must merge the two paths.
	if len(f.Block("join").Phis()) != 1 {
		t.Errorf("expected exactly 1 phi in join, got %d", len(f.Block("join").Phis()))
	}
	// Semantics: f(20) == 40, f(5) == 5.
	var out strings.Builder
	ip, err := interp.New(m, &out)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ip.Run("f", 20); int32(v) != 40 {
		t.Errorf("f(20) = %d, want 40", int32(v))
	}
	if v, _ := ip.Run("f", 5); int32(v) != 5 {
		t.Errorf("f(5) = %d, want 5", int32(v))
	}
}

func TestExceptionAttributeGatesDCE(t *testing.T) {
	// A div with ExceptionsEnabled=true and an unused result must NOT be
	// deleted (its trap is observable); with the attribute off it must be
	// deleted (paper, Section 3.3).
	src := `
int %f(int %x) {
entry:
    %dead1 = div int %x, 0
    %dead2 = div int %x, 0 !noexc
    ret int %x
}
`
	m, err := asm.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStats()
	DCE(m, s)
	f := m.Function("f")
	divs := 0
	for _, in := range f.Entry().Instructions() {
		if in.Op() == core.OpDiv {
			divs++
			if !in.ExceptionsEnabled {
				t.Error("the suppressed-exception div survived DCE")
			}
		}
	}
	if divs != 1 {
		t.Errorf("got %d divs after DCE, want 1 (trapping one kept)", divs)
	}
}

func TestSimplifyCFGFoldsConstantBranch(t *testing.T) {
	src := `
int %f() {
entry:
    br bool true, label %a, label %b
a:
    ret int 1
b:
    ret int 2
}
`
	m, err := asm.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStats()
	SimplifyCFG(m, s)
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	f := m.Function("f")
	if len(f.Blocks) != 1 {
		t.Errorf("got %d blocks, want 1 after folding", len(f.Blocks))
	}
	var out strings.Builder
	ip, _ := interp.New(m, &out)
	if v, _ := ip.Run("f"); int32(v) != 1 {
		t.Errorf("f() = %d, want 1", int32(v))
	}
}

func TestCSEEliminatesRedundantGEP(t *testing.T) {
	src := `
%struct.P = type { long, long }
long %f(%struct.P* %p) {
entry:
    %a1 = getelementptr %struct.P* %p, long 0, ubyte 1
    %v1 = load long* %a1
    %a2 = getelementptr %struct.P* %p, long 0, ubyte 1
    %v2 = load long* %a2
    %s = add long %v1, %v2
    ret long %s
}
`
	m, err := asm.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStats()
	CSE(m, s)
	LICM(m, s)
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	if s.Counts["cse.removed"] != 1 {
		t.Errorf("cse.removed = %d, want 1", s.Counts["cse.removed"])
	}
	if s.Counts["loadelim.forwarded"] != 1 {
		t.Errorf("loadelim.forwarded = %d, want 1", s.Counts["loadelim.forwarded"])
	}
}
