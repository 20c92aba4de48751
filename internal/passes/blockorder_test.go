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

// layoutViolation returns the first way f's block order breaks
// BlockOrder's postcondition, or "" if there is none. An edge from a
// reachable block that goes backward in layout must close a loop — both
// ends lie in one natural loop, so the target reaches the source again —
// and target the first block in layout of the innermost such loop. A loop
// laid out with its header after its latch (rotated) must have the latch
// fall through to the header.
func layoutViolation(f *core.Function) string {
	li := analysis.NewLoopInfo(analysis.NewDomTree(f))
	c := li.CFG
	for u, succs := range c.Succs {
		if !c.Reachable[u] {
			continue
		}
		for _, v := range succs {
			if v > u {
				continue
			}
			l := li.LoopOf[u]
			for l != nil && !l.Contains(v) {
				l = l.Parent
			}
			edge := f.Blocks[u].Name() + " → " + f.Blocks[v].Name()
			if l == nil {
				return "edge " + edge + " goes backward and closes no loop"
			}
			if first := l.Blocks[0]; first != v {
				return "edge " + edge + " goes backward to the middle of a loop laid out from " + f.Blocks[first].Name()
			}
		}
	}
	for _, l := range li.Loops {
		for _, latch := range l.Latches {
			if latch < l.Header && latch+1 != l.Header {
				return "rotated loop " + f.Blocks[l.Header].Name() + ": latch " + f.Blocks[latch].Name() + " does not fall through to it"
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
		if e := layoutViolation(f); e != "" {
			t.Errorf("%s %%%s: %s", name, f.Name(), e)
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
// every backward edge closing a loop at that loop's first block in
// layout, every rotated loop's latch falling through to its test, and
// BlockOrder a fixpoint of it. It also checks that BlockOrder reorders
// what InlineCall leaves, and which loop shapes it rotates.
func TestOptimizeBlockOrder(t *testing.T) {
	t.Run("inline-call", testInlinedBodyReordered)
	for _, c := range rotationCases {
		t.Run(c.name, func(t *testing.T) { testRotation(t, c) })
	}
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
// them back in control-flow order, with the inlined loop rotated and the
// unreachable block last, without changing what f computes.
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
	if e := layoutViolation(f); e == "" {
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
	if e := layoutViolation(f); e != "" {
		t.Error(e)
	}
	var names []string
	for _, bb := range f.Blocks {
		names = append(names, bb.Name())
	}
	if got := strings.Join(names, " "); got != "entry hot popcount.entry popcount.body popcount.loop popcount.done hot.cont cold join dead" {
		t.Errorf("block order %q", got)
	}
	if got := run(); !slices.Equal(got, want) {
		t.Errorf("f after BlockOrder returns %v, before %v", got, want)
	}
}

// rotationCase is one loop shape: a function f, the block order
// BlockOrder gives it, and argument lists to run it on.
type rotationCase struct {
	name, src, want string
	args            [][]uint64
}

var rotationCases = []rotationCase{{
	// A while loop: the latch falls through into the test, which jumps
	// back to the body. The unreachable block stays last.
	name: "while-rotated",
	want: "entry body cond done dead",
	args: [][]uint64{{0}, {1}, {10}},
	src: `
int %f(int %n) {
entry:
    br label %cond
dead:
    ret int 0
cond:
    %i = phi int [ 0, %entry ], [ %i2, %body ]
    %s = phi int [ 0, %entry ], [ %s2, %body ]
    %c = setlt int %i, %n
    br bool %c, label %body, label %done
body:
    %s2 = add int %s, %i
    %i2 = add int %i, 1
    br label %cond
done:
    ret int %s
}
`,
}, {
	// A do-while loop is tested at the bottom already: its header ends in
	// an unconditional br.
	name: "do-while-left-alone",
	want: "entry body test done",
	args: [][]uint64{{0}, {1}, {10}},
	src: `
int %f(int %n) {
entry:
    br label %body
body:
    %i = phi int [ 0, %entry ], [ %i2, %test ]
    %s = phi int [ 0, %entry ], [ %s2, %test ]
    %s2 = add int %s, %i
    br label %test
test:
    %i2 = add int %i, 1
    %c = setlt int %i2, %n
    br bool %c, label %body, label %done
done:
    ret int %s2
}
`,
}, {
	// continue makes a second latch: no one latch to fall through.
	name: "multi-latch-left-alone",
	want: "entry cond test skip body done",
	args: [][]uint64{{0}, {1}, {10}},
	src: `
int %f(int %n) {
entry:
    br label %cond
cond:
    %i = phi int [ 0, %entry ], [ %i1, %skip ], [ %i1, %body ]
    %s = phi int [ 0, %entry ], [ %s, %skip ], [ %s2, %body ]
    %c = setlt int %i, %n
    br bool %c, label %test, label %done
test:
    %i1 = add int %i, 1
    %odd = and int %i, 1
    %even = seteq int %odd, 0
    br bool %even, label %skip, label %body
skip:
    br label %cond
body:
    %s2 = add int %s, %i
    br label %cond
done:
    ret int %s
}
`,
}, {
	// The header's true edge exits and the exit follows the latch: rotated,
	// so that the translator can invert the test to branch back.
	name: "true-exit-rotated",
	want: "entry pre body cond done",
	args: [][]uint64{{0, 3}, {1, 3}, {20, 3}},
	src: `
int %f(int %x, int %k) {
entry:
    %p = setgt int %x, 0
    br bool %p, label %pre, label %done
pre:
    %x0 = mul int %x, 3
    br label %cond
cond:
    %v = phi int [ %x0, %pre ], [ %v2, %body ]
    %z = setle int %v, 0
    br bool %z, label %done, label %body
body:
    %v2 = sub int %v, %k
    br label %cond
done:
    %r = phi int [ 0, %entry ], [ %v, %cond ]
    ret int %r
}
`,
}, {
	// The header's true edge exits and reverse postorder puts the exit
	// next: the body is not, so the loop stays top-tested.
	name: "true-exit-left-alone",
	want: "entry cond done body",
	args: [][]uint64{{0}, {1}, {20}},
	src: `
int %f(int %x) {
entry:
    br label %cond
cond:
    %v = phi int [ %x, %entry ], [ %v2, %body ]
    %z = setle int %v, 0
    br bool %z, label %done, label %body
body:
    %v2 = sub int %v, 7
    br label %cond
done:
    ret int %v
}
`,
}, {
	// An outer loop whose body begins with an inner loop: the inner one is
	// rotated, and the outer one stays top-tested so that its back edge
	// still targets its first block in layout.
	name: "nest-inner-rotated",
	want: "entry ocond ibody icond olatch done",
	args: [][]uint64{{0}, {1}, {7}},
	src: `
int %f(int %n) {
entry:
    br label %ocond
ocond:
    %i = phi int [ 0, %entry ], [ %i2, %olatch ]
    %s = phi int [ 0, %entry ], [ %s3, %olatch ]
    %oc = setlt int %i, %n
    br bool %oc, label %icond, label %done
icond:
    %j = phi int [ 0, %ocond ], [ %j2, %ibody ]
    %s2 = phi int [ %s, %ocond ], [ %s4, %ibody ]
    %ic = setlt int %j, %i
    br bool %ic, label %ibody, label %olatch
ibody:
    %s4 = add int %s2, %j
    %j2 = add int %j, 1
    br label %icond
olatch:
    %s3 = add int %s2, 1
    %i2 = add int %i, 1
    br label %ocond
done:
    ret int %s
}
`,
}}

// testRotation runs BlockOrder on c's function and checks the order it
// gives, the postcondition, that f computes what it did, and that a
// second BlockOrder changes nothing.
func testRotation(t *testing.T, c rotationCase) {
	m, err := asm.Parse("t", c.src)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Function("f")
	run := func() []uint64 {
		ip, err := interp.New(m, &strings.Builder{})
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for _, a := range c.args {
			v, err := ip.Run("f", a...)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
		return out
	}
	want := run()
	passes.BlockOrder(m, passes.NewStats())
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, bb := range f.Blocks {
		names = append(names, bb.Name())
	}
	if got := strings.Join(names, " "); got != c.want {
		t.Errorf("block order %q, want %q", got, c.want)
	}
	if e := layoutViolation(f); e != "" {
		t.Error(e)
	}
	if got := run(); !slices.Equal(got, want) {
		t.Errorf("f after BlockOrder returns %v, before %v", got, want)
	}
	before := slices.Clone(f.Blocks)
	if passes.BlockOrder(m, passes.NewStats()) || !slices.Equal(before, f.Blocks) {
		t.Error("a second BlockOrder moved blocks")
	}
}
