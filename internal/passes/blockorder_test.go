package passes_test

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"llva/internal/analysis"
	"llva/internal/asm"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/minic"
	"llva/internal/passes"
	"llva/internal/workloads"
)

// serveKernels are four small kernels of the shape llva-serve runs on
// every light request, each exporting work(n).
var serveKernels = []string{
	`int work(int n) { int i, acc = 0; for (i = 0; i < n; i++) acc += i * i; return acc; }`,
	`int work(int n) { int i, a = 0, b = 1, t; for (i = 0; i < n; i++) { t = (a + b) % 1000003; a = b; b = t; } return a; }`,
	`int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; } return a; }
int work(int n) { int i, acc = 0; for (i = 1; i < n / 4; i++) acc += gcd(n * 7, i); return acc; }`,
	`int tab[64];
int work(int n) { int i, h = 17; for (i = 0; i < n; i++) { tab[i % 64] = h; h = (h * 31 + tab[(i * 7) % 64]) % 65521; } return h; }`,
}

// backwardEdge returns the first edge u→v of f that goes backward in
// block order although v does not dominate u, or "" if there is none.
func backwardEdge(f *core.Function) string {
	dt := analysis.NewDomTree(f)
	for u, succs := range dt.CFG.Succs {
		for _, v := range succs {
			if v <= u && !dt.Dominates(v, u) {
				return f.Blocks[u].Name() + " → " + f.Blocks[v].Name()
			}
		}
	}
	return ""
}

// checkOptimizedOrder holds every function of an optimized module to
// BlockOrder's postcondition. entries are the entry blocks before O2.
func checkOptimizedOrder(t *testing.T, name string, m *core.Module, entries map[string]*core.BasicBlock) {
	t.Helper()
	for _, f := range m.Functions {
		if f.IsDeclaration() {
			continue
		}
		if want := entries[f.Name()]; f.Entry() != want {
			t.Errorf("%s %%%s: first block is %%%s, the entry was %%%s", name, f.Name(), f.Entry().Name(), want.Name())
		}
		if e := backwardEdge(f); e != "" {
			t.Errorf("%s %%%s: edge %s goes backward and is not a loop edge", name, f.Name(), e)
		}
	}
	before := make(map[string][]*core.BasicBlock)
	for _, f := range m.Functions {
		before[f.Name()] = slices.Clone(f.Blocks)
	}
	s := passes.NewStats()
	if passes.BlockOrder(m, s) {
		t.Errorf("%s: a second BlockOrder changed %d functions", name, s.Counts["blockorder.functions"])
	}
	for _, f := range m.Functions {
		if !slices.Equal(before[f.Name()], f.Blocks) {
			t.Errorf("%s %%%s: a second BlockOrder moved blocks", name, f.Name())
		}
	}
}

func entryBlocks(m *core.Module) map[string]*core.BasicBlock {
	entries := make(map[string]*core.BasicBlock)
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			entries[f.Name()] = f.Entry()
		}
	}
	return entries
}

// TestOptimizeBlockOrder holds Optimize's output to its postcondition on
// the workload suite and on serve-style kernels: the entry block first,
// every edge forward unless its target dominates its source (a loop's
// back edge), and BlockOrder a fixpoint of it. It also checks that
// BlockOrder reorders what InlineCall leaves.
func TestOptimizeBlockOrder(t *testing.T) {
	t.Run("inline-call", testInlinedBodyReordered)
	optimize := func(name string, m *core.Module) {
		entries := entryBlocks(m)
		if _, err := passes.Optimize(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkOptimizedOrder(t, name, m, entries)
	}
	for _, w := range workloads.All() {
		m, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		optimize(w.Name, m)
	}
	for i, src := range serveKernels {
		m, err := minic.Compile("kernel.c", src)
		if err != nil {
			t.Fatal(err)
		}
		optimize("kernel "+strconv.Itoa(i), m)
	}
}

// inlineSrc calls a loop on one path of f, as crafty's search calls
// popcount: inlining appends the loop after the join it returns to. The
// block after f's entry is unreachable.
const inlineSrc = `
int %popcount(int %b) {
entry:
    br label %loop
loop:
    %x = phi int [ %b, %entry ], [ %x2, %body ]
    %n = phi int [ 0, %entry ], [ %n2, %body ]
    %nz = setne int %x, 0
    br bool %nz, label %body, label %done
body:
    %x1 = sub int %x, 1
    %x2 = and int %x, %x1
    %n2 = add int %n, 1
    br label %loop
done:
    ret int %n
}

int %f(int %x) {
entry:
    %c = setgt int %x, 10
    br bool %c, label %hot, label %cold
dead:
    ret int 0
hot:
    %v = call int %popcount(int %x)
    br label %join
cold:
    %w = mul int %x, 3
    br label %join
join:
    %r = phi int [ %v, %hot ], [ %w, %cold ]
    ret int %r
}
`

// testInlinedBodyReordered builds what InlineCall leaves, a callee's
// blocks after every block of the caller, and checks that BlockOrder puts
// them back in control-flow order, and the unreachable block last,
// without changing what f computes.
func testInlinedBodyReordered(t *testing.T) {
	m, err := asm.Parse("t", inlineSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Function("f")
	var call *core.Instruction
	for _, in := range f.Block("hot").Instructions() {
		if in.Op() == core.OpCall {
			call = in
		}
	}
	passes.InlineCall(f, call)
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	if e := backwardEdge(f); e == "" {
		t.Fatal("InlineCall left the blocks in control-flow order: the test no longer builds its case")
	}
	run := func() []int32 {
		ip, err := interp.New(m, &strings.Builder{})
		if err != nil {
			t.Fatal(err)
		}
		var out []int32
		for _, x := range []uint64{0, 7, 11, 255, 1 << 20} {
			v, err := ip.Run("f", x)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, int32(v))
		}
		return out
	}
	want := run()
	entry := f.Entry()
	if !passes.BlockOrder(m, passes.NewStats()) {
		t.Fatal("BlockOrder left the inlined body at the end")
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	if f.Entry() != entry {
		t.Errorf("first block is %%%s, the entry was %%%s", f.Entry().Name(), entry.Name())
	}
	if e := backwardEdge(f); e != "" {
		t.Errorf("edge %s goes backward and is not a loop edge", e)
	}
	var names []string
	for _, bb := range f.Blocks {
		names = append(names, bb.Name())
	}
	if got := strings.Join(names, " "); got != "entry hot popcount.entry popcount.loop popcount.body popcount.done hot.cont cold join dead" {
		t.Errorf("block order %q", got)
	}
	if got := run(); !slices.Equal(got, want) {
		t.Errorf("f after BlockOrder returns %v, before %v", got, want)
	}
}
