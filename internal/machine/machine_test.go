package machine

import (
	"strconv"
	"strings"
	"testing"

	"llva/internal/asm"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/mem"
	"llva/internal/minic"
	"llva/internal/passes"
	"llva/internal/prof"
	"llva/internal/rt"
	"llva/internal/target"
)

// crossPrograms must behave identically on the reference interpreter and
// on both simulated processors, optimized or not.
var crossPrograms = map[string]string{
	"arith": `
int main() {
	long a = 1234567891011L;
	long b = -987654321;
	unsigned int u = 4000000000u;
	print_int(a + b); print_nl();
	print_int(a * 7 % 1000003); print_nl();
	print_uint(u / 7); print_nl();
	print_int((int)(u % 13)); print_nl();
	print_int(a >> 5); print_nl();
	print_int(b >> 3); print_nl();   /* arithmetic shift of negative */
	print_uint(u >> 3); print_nl();
	print_int(1 << 30); print_nl();
	return 0;
}`,
	"controlflow": `
int collatz(int n) {
	int steps = 0;
	while (n != 1) {
		if (n % 2 == 0) n /= 2; else n = 3 * n + 1;
		steps++;
	}
	return steps;
}
int main() {
	int i, total = 0;
	for (i = 1; i <= 40; i++) total += collatz(i);
	print_int(total); print_nl();
	switch (total % 7) {
	case 0: print_str("zero"); break;
	case 1: print_str("one"); break;
	case 2: print_str("two"); break;
	default: print_str("many"); break;
	}
	print_nl();
	return 0;
}`,
	"memory": `
struct Node { long val; struct Node *next; };
int main() {
	struct Node *head = 0;
	long i;
	for (i = 0; i < 50; i++) {
		struct Node *n = (struct Node*)malloc(sizeof(struct Node));
		n->val = i * i;
		n->next = head;
		head = n;
	}
	long sum = 0;
	struct Node *p = head;
	while (p != 0) { sum += p->val; p = p->next; }
	print_int(sum); print_nl();
	return 0;
}`,
	"floats": `
double mc_pi(int iters) {
	double inside = 0.0;
	int i;
	srand(42);
	for (i = 0; i < iters; i++) {
		double x = (double)(rand() % 10000) / 10000.0;
		double y = (double)(rand() % 10000) / 10000.0;
		if (x * x + y * y <= 1.0) inside += 1.0;
	}
	return 4.0 * inside / (double)iters;
}
int main() {
	print_float(mc_pi(2000)); print_nl();
	float f = 1.5f;
	double d = f * 2.0;
	print_float(d); print_nl();
	print_float(sqrt(2.0)); print_nl();
	return 0;
}`,
	"strings": `
int main() {
	char buf[64];
	char *msg = "the quick brown fox";
	int n = (int)strlen(msg);
	int i;
	for (i = 0; i < n; i++) buf[i] = msg[n - 1 - i];
	buf[n] = '\0';
	print_str(buf); print_nl();
	print_int(n); print_nl();
	return 0;
}`,
	"recursion": `
long fib(int n) {
	if (n < 2) return (long)n;
	return fib(n - 1) + fib(n - 2);
}
int main() {
	print_int(fib(18)); print_nl();
	return 0;
}`,
	"fnptr": `
typedef long (*op)(long, long);
long add(long a, long b) { return a + b; }
long mul(long a, long b) { return a * b; }
op table[2] = {add, mul};
int main() {
	long acc = 1;
	int i;
	for (i = 0; i < 8; i++) acc = table[i % 2](acc, (long)(i + 1));
	print_int(acc); print_nl();
	return 0;
}`,
	"sort": `
void quicksort(int *a, int lo, int hi) {
	if (lo >= hi) return;
	int pivot = a[(lo + hi) / 2];
	int i = lo, j = hi;
	while (i <= j) {
		while (a[i] < pivot) i++;
		while (a[j] > pivot) j--;
		if (i <= j) {
			int t = a[i]; a[i] = a[j]; a[j] = t;
			i++; j--;
		}
	}
	quicksort(a, lo, j);
	quicksort(a, i, hi);
}
int main() {
	int a[100];
	int i;
	srand(7);
	for (i = 0; i < 100; i++) a[i] = (int)(rand() % 1000);
	quicksort(a, 0, 99);
	long checksum = 0;
	for (i = 0; i < 100; i++) checksum = checksum * 31 + (long)a[i];
	print_int(checksum); print_nl();
	print_int(a[0]); print_char(' '); print_int(a[99]); print_nl();
	return 0;
}`,
	"exceptions_llva": "", // filled below with hand-written LLVA
}

const exceptionsLLVA = `
declare void %print_int(long %v)
declare void %print_nl()

void %risky(int %x) {
entry:
    %bad = setgt int %x, 5
    br bool %bad, label %boom, label %ok
boom:
    unwind
ok:
    ret void
}

int %main() {
entry:
    br label %loop
loop:
    %i = phi int [ 0, %entry ], [ %i2, %next ]
    %caught = phi int [ 0, %entry ], [ %c2, %next ]
    invoke void %risky(int %i) to label %fine unwind label %handler
fine:
    br label %next
handler:
    br label %bump
bump:
    br label %next
next:
    %inc = phi int [ 0, %fine ], [ 1, %bump ]
    %c2 = add int %caught, %inc
    %i2 = add int %i, 1
    %more = setlt int %i2, 10
    br bool %more, label %loop, label %done
done:
    %cl = cast int %c2 to long
    call void %print_int(long %cl)
    call void %print_nl()
    ret int %c2
}
`

// runInterp executes the module on the reference interpreter.
func runInterp(t *testing.T, m *core.Module) (int, string) {
	t.Helper()
	var out strings.Builder
	ip, err := interp.New(m, &out)
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	code, err := ip.RunMain()
	if err != nil {
		t.Fatalf("interp run: %v\noutput: %s", err, out.String())
	}
	return code, out.String()
}

// loadModule translates offline and loads the code into a fresh machine.
func loadModule(t *testing.T, m *core.Module, d *target.Desc) (*Machine, *strings.Builder) {
	t.Helper()
	tr, err := codegen.New(d, m)
	if err != nil {
		t.Fatalf("codegen.New: %v", err)
	}
	obj, err := tr.TranslateModule()
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	var out strings.Builder
	env := rt.NewEnv(mem.New(0, true), &out)
	mc, err := New(d, m, env)
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	if err := mc.LoadObject(obj); err != nil {
		t.Fatalf("load: %v", err)
	}
	return mc, &out
}

// runMachine translates offline and executes on the simulated processor.
func runMachine(t *testing.T, m *core.Module, d *target.Desc) (int, string) {
	t.Helper()
	mc, out := loadModule(t, m, d)
	v, err := mc.Run("main")
	if err != nil {
		if _, isExit := err.(*rt.ExitError); !isExit {
			t.Fatalf("machine run (%s): %v\noutput: %s", d.Name, err, out.String())
		}
	}
	return int(int32(v)), out.String()
}

func compileVariants(t *testing.T, name, src string) map[string]*core.Module {
	t.Helper()
	variants := map[string]*core.Module{}
	for _, opt := range []bool{false, true} {
		var m *core.Module
		var err error
		if src == "" {
			continue
		}
		m, err = minic.Compile(name+".c", src)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		label := "O0"
		if opt {
			if _, err := passes.Optimize(m); err != nil {
				t.Fatalf("optimize: %v", err)
			}
			label = "O2"
		}
		if err := core.Verify(m); err != nil {
			t.Fatalf("verify (%s): %v", label, err)
		}
		variants[label] = m
	}
	return variants
}

// TestCrossEngineConsistency is the codegen correctness oracle: every
// program must produce byte-identical output and the same exit status on
// the interpreter, the vx86 machine and the vsparc machine, both
// unoptimized and after the full O2 pipeline.
func TestCrossEngineConsistency(t *testing.T) {
	for name, src := range crossPrograms {
		if src == "" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			for label, m := range compileVariants(t, name, src) {
				refCode, refOut := runInterp(t, m)
				for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
					code, out := runMachine(t, m, d)
					if out != refOut || code != refCode {
						t.Errorf("%s/%s diverges from interpreter:\ninterp: code=%d out=%q\n%s:  code=%d out=%q",
							label, d.Name, refCode, refOut, d.Name, code, out)
					}
				}
			}
		})
	}
}

func TestInvokeUnwindOnMachines(t *testing.T) {
	m := mustParseAsm(t, exceptionsLLVA)
	refCode, refOut := runInterp(t, m)
	if refCode != 4 { // i = 6..9 unwind
		t.Fatalf("interp baseline = %d, want 4", refCode)
	}
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		code, out := runMachine(t, m, d)
		if code != refCode || out != refOut {
			t.Errorf("%s: code=%d out=%q, want code=%d out=%q", d.Name, code, out, refCode, refOut)
		}
	}
}

func TestJITLazyTranslation(t *testing.T) {
	src := `
int helper(int x) { return x * 3; }
int unused(int x) { return x * 5; }
int main() { return helper(7); }
`
	m, err := minic.Compile("jit.c", src)
	if err != nil {
		t.Fatal(err)
	}
	d := target.VX86
	tr, err := codegen.New(d, m)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	env := rt.NewEnv(mem.New(0, true), &out)
	mc, err := New(d, m, env)
	if err != nil {
		t.Fatal(err)
	}
	translated := map[string]bool{}
	mc.OnJIT = func(name string) (uint64, error) {
		translated[name] = true
		f := m.Function(name)
		nf, err := tr.TranslateFunction(f)
		if err != nil {
			return 0, err
		}
		return mc.InstallCode(nf)
	}
	if err := mc.patchDataFuncAddrs(); err != nil {
		t.Fatal(err)
	}
	v, err := mc.Run("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if int32(v) != 21 {
		t.Errorf("main() = %d, want 21", int32(v))
	}
	if !translated["main"] || !translated["helper"] {
		t.Errorf("JIT should have translated main and helper: %v", translated)
	}
	if translated["unused"] {
		t.Error("JIT translated a function that was never called (should be on demand)")
	}
	if mc.Stats.JITRequests != 2 {
		t.Errorf("JIT requests = %d, want 2", mc.Stats.JITRequests)
	}
}

func mustParseAsm(t *testing.T, src string) *core.Module {
	t.Helper()
	m, err := parseAsm(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func parseAsm(src string) (*core.Module, error) { return asm.Parse("test", src) }

// TestMallocOverflowFaultsEverywhere: malloc of a size no address space
// holds is the LLVA memory exception on every engine, at the same point
// of the program. mem.Alloc used to bound brk+n with wrapping arithmetic:
// malloc(-4096) succeeded and moved the heap break back a page, into the
// code segment, and malloc(-1) rounded to a zero-length block; interpreter
// and machine share that allocator, so no differential saw it.
func TestMallocOverflowFaultsEverywhere(t *testing.T) {
	for _, n := range []int64{-1, -4096} {
		src := `
int main() {
    print_int(1); print_nl();
    char *p = malloc(` + strconv.FormatInt(n, 10) + `);
    print_int(2); print_nl();
    p[0] = 7;
    return p[0];
}
`
		for label, m := range compileVariants(t, "overflow", src) {
			var out strings.Builder
			ip, err := interp.New(m, &out)
			if err != nil {
				t.Fatal(err)
			}
			_, err = ip.RunMain()
			// The fault names the heap break, which is where each engine's
			// image ends; everything before it must agree.
			want := "memory fault: alloc of " + strconv.FormatInt(n, 10) + " byte(s) at "
			ref, ok := err.(*interp.TrapError)
			if !ok || ref.Num != interp.TrapMemoryFault || !strings.HasPrefix(ref.Detail, want) || out.String() != "1\n" {
				t.Errorf("malloc(%d) %s interp: err = %v, out = %q; want %q... after \"1\\n\"", n, label, err, out.String(), want)
				continue
			}
			for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
				mc, mout := loadModule(t, m, d)
				_, err := mc.Run("main")
				te, ok := err.(*TrapError)
				if !ok || te.Num != TrapMemoryFault || !strings.HasPrefix(te.Detail, want) || mout.String() != out.String() {
					t.Errorf("malloc(%d) %s %s: err = %v, out = %q; want the interpreter's %q after %q",
						n, label, d.Name, err, mout.String(), ref.Detail, out.String())
				}
			}
		}
	}
}

// loadedBoolLLVA stores the byte 2, reads it back as a bool and prints
// the bool as a long, then 200 on the branch's false edge (100 on its
// true one).
const loadedBoolLLVA = `
declare void %print_int(long %v)
declare void %print_nl()

int %main() {
entry:
    %p = alloca ubyte
    store ubyte 2, ubyte* %p
    %q = cast ubyte* %p to bool*
    %b = load bool* %q
    %w = cast bool %b to long
    call void %print_int(long %w)
    call void %print_nl()
    br bool %b, label %yes, label %no
yes:
    call void %print_int(long 100)
    call void %print_nl()
    ret int 0
no:
    call void %print_int(long 200)
    call void %print_nl()
    ret int 0
}
`

// TestLoadedBoolIsLowBit holds every engine to the interpreter's reading
// of a bool in memory: its byte's low bit. The byte 2 is false on the
// interpreter and on both targets at tier 1 and at tier 2.
func TestLoadedBoolIsLowBit(t *testing.T) {
	m := mustParseAsm(t, loadedBoolLLVA)
	const want = "0\n200\n"
	if _, out := runInterp(t, m); out != want {
		t.Fatalf("interpreter prints %q, want %q", out, want)
	}
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		tr, err := codegen.New(d, m)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := tr.TranslateModule()
		if err != nil {
			t.Fatal(err)
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
				t.Fatalf("%s tier %d: %v", d.Name, tier, err)
			}
			if out.String() != want {
				t.Errorf("%s tier %d prints %q, want %q", d.Name, tier, out.String(), want)
			}
			// Tier 2 lowers main from the profile of the tier-1 run.
			if obj, err = tr.WithTier2(p.Artifact(m.Name, d.Name)).TranslateModule(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
