package passes

import (
	"fmt"
	"strings"
	"testing"

	"llva/internal/asm"
	"llva/internal/core"
	"llva/internal/interp"
)

// memPrelude is what every memory rule case shares: two scalar globals,
// an array, a helper that writes %g, and a main that calls the case's
// %f(%p, %c) with %p pointing at %g itself, so a load of %g that wrongly
// survives a store through %p prints a different number.
const memPrelude = `
declare void %print_int(long %v)
declare void %print_nl()

%g = global long 7
%h = global long 5
%a = global [8 x long] zeroinitializer

void %bump() {
entry:
    %v = load long* %g
    %v1 = add long %v, 1
    store long %v1, long* %g
    ret void
}

int %main() {
entry:
    %v = call long %f(long* %g, bool true)
    call void %print_int(long %v)
    call void %print_nl()
    %gv = load long* %g
    call void %print_int(long %gv)
    call void %print_nl()
    %e = getelementptr [8 x long]* %a, long 0, long 4
    %ev = load long* %e
    call void %print_int(long %ev)
    call void %print_nl()
    ret int 0
}
`

// memRules are the rules of LICM's forwarding and load hoisting
// (DESIGN.md §5), one case each: the loads LICM forwards and hoists in
// %f, which the prelude's functions add nothing to.
var memRules = []struct {
	name               string
	forwarded, hoisted int
	f                  string
}{
	{"forward across a store-free diamond", 1, 0, `
entry:
    %x = load long* %g
    br bool %c, label %l, label %r
l:
    %y = add long %x, 1
    br label %join
r:
    br label %join
join:
    %z = phi long [ %y, %l ], [ 0, %r ]
    %w = load long* %g
    %s = add long %z, %w
    ret long %s`},
	{"forward into a single-predecessor arm", 1, 0, `
entry:
    %x = load long* %g
    br bool %c, label %l, label %r
l:
    %y = load long* %g
    %s = add long %x, %y
    ret long %s
r:
    ret long 0`},
	{"forward a non-escaping alloca across a call", 1, 0, `
entry:
    %t = alloca long
    store long 3, long* %t
    call void %bump()
    %y = load long* %t
    ret long %y`},
	{"no forward past a may-alias store in an arm", 0, 0, `
entry:
    %x = load long* %g
    br bool %c, label %l, label %join
l:
    store long 9, long* %p
    br label %join
join:
    %y = load long* %g
    %s = add long %x, %y
    ret long %s`},
	{"no forward past a call", 0, 0, `
entry:
    %x = load long* %g
    call void %bump()
    %y = load long* %g
    %s = add long %x, %y
    ret long %s`},
	{"no forward past an invoke", 0, 0, `
entry:
    %x = load long* %g
    invoke void %bump() to label %ok unwind label %bad
ok:
    %y = load long* %g
    %s = add long %x, %y
    ret long %s
bad:
    ret long 0`},
	{"no forward of a !noexc load's value to a trapping load", 0, 0, `
entry:
    %bad = cast long 8 to long*
    %x = load long* %bad !noexc
    %y = load long* %bad
    %s = add long %x, %y
    ret long %s`},
	{"no forward of a !noexc store's value", 0, 0, `
entry:
    %bad = cast long 8 to long*
    store long 5, long* %bad !noexc
    %y = load long* %bad !noexc
    ret long %y`},
	{"no forward into a loop", 0, 1, `
entry:
    %x = load long* %g
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i1, %body ]
    %acc = phi long [ %x, %entry ], [ %acc1, %body ]
    %n = load long* %g
    %more = setlt long %i, %n
    br bool %more, label %body, label %exit
body:
    %acc1 = add long %acc, %i
    %i1 = add long %i, 1
    br label %loop
exit:
    ret long %acc`},
	{"no forward out of a loop", 0, 0, `
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i1, %body ]
    %v = load long* %g
    %more = setlt long %i, 3
    br bool %more, label %body, label %exit
body:
    %v1 = add long %v, 1
    store long %v1, long* %g
    %i1 = add long %i, 1
    br label %loop
exit:
    %w = load long* %g
    ret long %w`},
	{"hoist a header load of a global the loop does not store", 0, 1, `
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i1, %body ]
    %n = load long* %h
    %more = setlt long %i, %n
    br bool %more, label %body, label %exit
body:
    %e = getelementptr [8 x long]* %a, long 0, long %i
    store long %i, long* %e
    %i1 = add long %i, 1
    br label %loop
exit:
    ret long %i`},
	{"no hoist past a may-alias store in the loop", 0, 0, `
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i1, %body ]
    %n = load long* %g
    %more = setlt long %i, %n
    br bool %more, label %body, label %exit
body:
    store long 4, long* %p
    %i1 = add long %i, 1
    br label %loop
exit:
    ret long %i`},
	{"no hoist past a call in the loop", 0, 0, `
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i1, %body ]
    %acc = phi long [ 0, %entry ], [ %acc1, %body ]
    %v = load long* %g
    %more = setlt long %i, 3
    br bool %more, label %body, label %exit
body:
    %acc1 = add long %acc, %v
    call void %bump()
    %i1 = add long %i, 1
    br label %loop
exit:
    ret long %acc`},
	{"no hoist of a trapping load outside the header", 0, 0, `
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i1, %body ]
    %more = setlt long %i, 12
    br bool %more, label %body, label %exit
body:
    %n = load long* %h
    %i1 = add long %i, %n
    br label %loop
exit:
    ret long %i`},
	{"no hoist of a trapping load below a store in the header", 0, 0, `
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i1, %body ]
    %e = getelementptr [8 x long]* %a, long 0, long %i
    store long %i, long* %e
    %n = load long* %h
    %more = setlt long %i, %n
    br bool %more, label %body, label %exit
body:
    %i1 = add long %i, 1
    br label %loop
exit:
    ret long %i`},
	{"hoist a load out of the inner loop only", 0, 1, `
entry:
    br label %outer
outer:
    %j = phi long [ 0, %entry ], [ %j1, %latch ]
    %mo = setlt long %j, 2
    br bool %mo, label %pre, label %exit
pre:
    br label %inner
inner:
    %i = phi long [ 0, %pre ], [ %i1, %body ]
    %n = load long* %h !noexc
    %more = setlt long %i, %n
    br bool %more, label %body, label %latch
body:
    %i1 = add long %i, 1
    br label %inner
latch:
    %j1 = add long %j, %i
    br label %outer
exit:
    ret long %j`},
	{"no hoist of a trapping load below a conditional preheader", 0, 0, `
entry:
    br bool %c, label %loop, label %exit
loop:
    %i = phi long [ 0, %entry ], [ %i1, %body ]
    %n = load long* %h
    %more = setlt long %i, %n
    br bool %more, label %body, label %exit
body:
    %i1 = add long %i, 1
    br label %loop
exit:
    %r = phi long [ -1, %entry ], [ %i, %loop ]
    ret long %r`},
	{"no hoist of a !noexc load the loop stores to", 0, 0, `
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i1, %loop ]
    %v = load long* %g !noexc
    %v1 = add long %v, 1
    store long %v1, long* %g
    %i1 = add long %i, 1
    %more = setlt long %i1, 10
    br bool %more, label %loop, label %exit
exit:
    ret long %i1`},
}

func memRuleModule(t testing.TB, f string) *core.Module {
	t.Helper()
	m, err := asm.Parse("mem", memPrelude+"long %f(long* %p, bool %c) {"+f+"\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMemoryRules counts what LICM forwards and hoists in each rule's
// case, and holds the case's output after LICM and after O2 to the
// unoptimized module's.
func TestMemoryRules(t *testing.T) {
	for _, r := range memRules {
		t.Run(r.name, func(t *testing.T) {
			want := runMemModule(t, memRuleModule(t, r.f))
			m := memRuleModule(t, r.f)
			s := NewStats()
			LICM(m, s)
			if err := core.Verify(m); err != nil {
				t.Fatal(err)
			}
			if got := s.Counts["loadelim.forwarded"]; got != r.forwarded {
				t.Errorf("loadelim.forwarded = %d, want %d", got, r.forwarded)
			}
			if got := s.Counts["licm.hoisted"]; got != r.hoisted {
				t.Errorf("licm.hoisted = %d, want %d", got, r.hoisted)
			}
			if got := runMemModule(t, m); got != want {
				t.Errorf("after LICM the module prints %q, unoptimized %q", got, want)
			}
			m = memRuleModule(t, r.f)
			if _, err := Optimize(m); err != nil {
				t.Fatal(err)
			}
			if got := runMemModule(t, m); got != want {
				t.Errorf("after O2 the module prints %q, unoptimized %q", got, want)
			}
		})
	}
}

// runMemModule runs m's main on the interpreter and returns what it
// printed, its trap included.
func runMemModule(t testing.TB, m *core.Module) string {
	t.Helper()
	var out strings.Builder
	ip, err := interp.New(m, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.RunMain(); err != nil {
		fmt.Fprintf(&out, "error: %v\n", err)
	}
	return out.String()
}

// FuzzOptimizeMemory is the optimizer's memory oracle: a function of
// loads and stores to two global arrays, a local array and a pointer
// parameter that points into either global, with calls to a helper that
// writes one of them, diamonds and bounded loops, must print the same on
// the interpreter after O2 as before. memProgram decodes the input into
// that function; the seeds spell the shapes of memRules' cases.
func FuzzOptimizeMemory(f *testing.F) {
	for _, seed := range memSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		src := memProgram(in)
		m, err := asm.Parse("fuzz", src)
		if err != nil {
			t.Fatalf("decoded program does not parse: %v\n%s", err, src)
		}
		if err := core.Verify(m); err != nil {
			t.Fatalf("decoded program does not verify: %v\n%s", err, src)
		}
		want := runMemModule(t, m)
		pipe := O2()
		pipe.Verify = true
		if _, err := pipe.Run(m, NewStats()); err != nil {
			t.Fatalf("O2: %v\n%s", err, src)
		}
		if got := runMemModule(t, m); got != want {
			t.Fatalf("after O2 the program prints %q, unoptimized %q\n%s", got, want, src)
		}
	})
}

// The statements memProgram decodes: an op byte whose low three bits pick
// the statement and whose high bits, with the bytes after it, pick its
// operands. An address is one byte: its low two bits pick the object
// (memObjects); inside a loop, bit 2 makes the innermost loop's counter
// the index, else bits 3-4 are a constant one.
const (
	memLoad  = iota // acc += *addr; op bit 3: the load is !noexc
	memStore        // *addr = acc + (op >> 3)
	memCall         // %poke(k, acc) stores a mix of acc to %gb[k]; the next byte is k as an address's index, bits 3-5 for a constant
	memIf           // if acc is odd { n statements } else { n statements }
	memLoop         // for i < trip { n statements }; op bit 3: trip is read from an address, else it is the next byte
	memPrint        // print acc
	memMix          // acc = acc * 3 + (op >> 3)
	memStmts
)

// memObjects are the arrays an address can point into, with the number
// of elements an index may reach: %p points at most 3 elements into %ga
// or %gb, so it keeps 5.
var memObjects = [4]struct {
	name string
	n    int
}{{"%ga", 8}, {"%gb", 8}, {"%p", 5}, {"%t", 4}}

// memSeeds mirror memRules' shapes; the first two bytes pick %p (%ga or
// %gb, and its offset) and %c.
var memSeeds = [][]byte{
	// A store-free diamond between two loads of %ga[1].
	{0, 1, memLoad, 0x08, memIf, 0, memMix | 0x08, 0, memMix | 0x10, memLoad, 0x08},
	// A store through %p, which points at %ga[0], in one arm.
	{0, 0, memLoad, 0x00, memIf, 0, memStore | 0x10, 0x02, 0, memMix, memLoad, 0x00},
	// A call between two loads of %gb[2], and of the local array.
	{0, 0, memLoad, 0x11, memCall, 0x10, memLoad, 0x11, memStore, 0x0b, memCall, 0x00, memLoad, 0x0b},
	// Loads of %ga[0] before, in and after a loop.
	{0, 0, memLoad, 0x00, memLoop, 3, 0, memLoad, 0x00, memLoad, 0x00},
	// A loop whose trip count is read from %ga[1] and stores only %gb.
	{0, 0, memStore | 0x18, 0x08, memLoop | 0x08, 0x08, 0, memStore, 0x05, memPrint},
	// The same loop storing through %p, which points at %ga[0].
	{0, 0, memStore | 0x18, 0x08, memLoop | 0x08, 0x08, 0, memStore, 0x06, memPrint},
	// A load in a loop's body, and a !noexc load the loop stores to.
	{0, 0, memLoop, 3, 1, memLoad, 0x10, memMix, memLoop, 2, 1, memLoad | 0x08, 0x01, memStore, 0x01},
	// A call in a loop that loads what the helper stores, in the body
	// and as the trip count.
	{1, 0, memLoop, 3, 1, memLoad, 0x01, memCall, 0x00, memPrint},
	{1, 0, memLoad, 0x08, memLoop | 0x08, 0x01, 1, memCall, 0x00, memMix | 0x08, memPrint},
}

// memProgram decodes in into a module whose %f runs the statements it
// spells (at most 48, nested at most three deep) and whose main prints
// f's result and every element of both globals. Every input decodes to a
// verifier-clean module whose loops end and whose addresses are in
// bounds.
func memProgram(in []byte) string {
	g := &memGen{in: in}
	pick := g.byte()
	c := g.byte()
	g.budget = 48
	for len(g.in) > 0 && g.budget > 0 {
		g.stmt()
	}
	var b strings.Builder
	b.WriteString(`declare void %print_int(long %v)
declare void %print_nl()

%ga = global [8 x long] [ long 3, long 1, long 4, long 1, long 5, long 9, long 2, long 6 ]
%gb = global [8 x long] [ long 2, long 7, long 1, long 8, long 2, long 8, long 1, long 8 ]

void %poke(long %k, long %v) {
entry:
    %x0 = add long %v, 0
`)
	// Rounds of mixing keep %poke above InlineThreshold, so that O2
	// leaves its calls in place.
	for i := 1; i <= InlineThreshold/2; i++ {
		fmt.Fprintf(&b, "    %%x%d.m = mul long %%x%d, 3\n    %%x%d = add long %%x%d.m, %%k\n", i, i-1, i, i)
	}
	fmt.Fprintf(&b, `    %%e = getelementptr [8 x long]* %%gb, long 0, long %%k
    store long %%x%d, long* %%e
    ret void
}

long %%f(long* %%p, long %%c) {
entry:
    %%acc = alloca long
    store long %%c, long* %%acc
    %%t = alloca [4 x long]
`, InlineThreshold/2)
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, "    %%t%d = getelementptr [4 x long]* %%t, long 0, long %d\n    store long %d, long* %%t%d\n", i, i, 10+i, i)
	}
	for d := 0; d < 3; d++ {
		fmt.Fprintf(&b, "    %%i%d = alloca long\n", d)
	}
	b.WriteString(g.body.String())
	fmt.Fprintf(&b, `    %%r = load long* %%acc
    ret long %%r
}

int %%main() {
entry:
    %%p = getelementptr [8 x long]* %s, long 0, long %d
    %%v = call long %%f(long* %%p, long %d)
    call void %%print_int(long %%v)
    call void %%print_nl()
`, memObjects[pick&1].name, pick>>1&3, int8(c))
	for _, arr := range []string{"ga", "gb"} {
		for i := 0; i < 8; i++ {
			fmt.Fprintf(&b, "    %%%s%d = getelementptr [8 x long]* %%%s, long 0, long %d\n    %%%sv%d = load long* %%%s%d\n    call void %%print_int(long %%%sv%d)\n    call void %%print_nl()\n",
				arr, i, arr, i, arr, i, arr, i, arr, i)
		}
	}
	b.WriteString("    ret int 0\n}\n")
	return b.String()
}

// memGen is memProgram's decoder state: the input left, f's body so far,
// the statement budget, the fresh-name counter and the loop nesting.
type memGen struct {
	in     []byte
	body   strings.Builder
	budget int
	n      int
	loops  int
	depth  int
}

func (g *memGen) byte() byte {
	if len(g.in) == 0 {
		return 0
	}
	b := g.in[0]
	g.in = g.in[1:]
	return b
}

func (g *memGen) emit(format string, args ...any) {
	g.body.WriteString("    ")
	fmt.Fprintf(&g.body, format, args...)
	g.body.WriteByte('\n')
}

func (g *memGen) label(name string) { fmt.Fprintf(&g.body, "%s:\n", name) }

// addr emits the address one byte picks and returns its name.
func (g *memGen) addr() string {
	a := g.byte()
	obj := memObjects[a&3]
	g.n++
	idx := fmt.Sprint(int(a>>3&3) % obj.n)
	if a&4 != 0 && g.loops > 0 {
		idx = fmt.Sprintf("%%x%d", g.n)
		g.emit("%s = load long* %%i%d", idx, g.loops-1)
	}
	name := fmt.Sprintf("%%a%d", g.n)
	switch obj.name {
	case "%p":
		g.emit("%s = getelementptr long* %%p, long %s", name, idx)
	default:
		g.emit("%s = getelementptr [%d x long]* %s, long 0, long %s", name, obj.n, obj.name, idx)
	}
	return name
}

// acc emits a load of the accumulator and returns its name.
func (g *memGen) acc() string {
	g.n++
	v := fmt.Sprintf("%%v%d", g.n)
	g.emit("%s = load long* %%acc", v)
	return v
}

func (g *memGen) setAcc(v string) { g.emit("store long %s, long* %%acc", v) }

func (g *memGen) stmts() {
	for k := int(g.byte()%3) + 1; k > 0 && g.budget > 0; k-- {
		g.stmt()
	}
}

func (g *memGen) stmt() {
	g.budget--
	op := g.byte()
	arg := int64(op >> 3)
	switch (op & 7) % memStmts {
	case memLoad:
		a := g.addr()
		noexc := ""
		if op&8 != 0 {
			noexc = " !noexc"
		}
		x, v := g.acc(), fmt.Sprintf("%%l%d", g.n)
		g.emit("%s = load long* %s%s", v, a, noexc)
		g.emit("%s.s = add long %s, %s", v, x, v)
		g.setAcc(v + ".s")
	case memStore:
		a := g.addr()
		x := g.acc()
		g.emit("%s.s = add long %s, %d", x, x, arg)
		g.emit("store long %s.s, long* %s", x, a)
	case memCall:
		k := g.byte()
		idx := fmt.Sprint(k >> 3 & 7)
		if k&4 != 0 && g.loops > 0 {
			g.n++
			idx = fmt.Sprintf("%%x%d", g.n)
			g.emit("%s = load long* %%i%d", idx, g.loops-1)
		}
		g.emit("call void %%poke(long %s, long %s)", idx, g.acc())
	case memIf:
		if g.depth >= 3 {
			return
		}
		g.depth++
		x := g.acc()
		id := g.n
		g.emit("%%o%d = and long %s, 1", id, x)
		g.emit("%%b%d = setne long %%o%d, 0", id, id)
		g.emit("br bool %%b%d, label %%then%d, label %%else%d", id, id, id)
		g.label(fmt.Sprintf("then%d", id))
		g.stmts()
		g.emit("br label %%join%d", id)
		g.label(fmt.Sprintf("else%d", id))
		g.stmts()
		g.emit("br label %%join%d", id)
		g.label(fmt.Sprintf("join%d", id))
		g.depth--
	case memLoop:
		if g.depth >= 3 {
			return
		}
		g.depth++
		g.n++
		id, ctr := g.n, g.loops
		// The trip count is a constant, or read from memory in the
		// header: 0 to 3 either way.
		trip := fmt.Sprintf("%%trip%d.m", id)
		if op&8 == 0 {
			trip = fmt.Sprint(g.byte() & 3)
		}
		g.emit("store long 0, long* %%i%d", ctr)
		g.emit("br label %%head%d", id)
		g.label(fmt.Sprintf("head%d", id))
		g.emit("%%c%d = load long* %%i%d", id, ctr)
		if op&8 != 0 {
			a := g.addr()
			g.emit("%%trip%d = load long* %s", id, a)
			g.emit("%%trip%d.m = and long %%trip%d, 3", id, id)
		}
		g.emit("%%m%d = setlt long %%c%d, %s", id, id, trip)
		g.emit("br bool %%m%d, label %%body%d, label %%exit%d", id, id, id)
		g.label(fmt.Sprintf("body%d", id))
		g.loops++
		g.stmts()
		g.loops--
		g.emit("%%c%d.n = load long* %%i%d", id, ctr)
		g.emit("%%c%d.s = add long %%c%d.n, 1", id, id)
		g.emit("store long %%c%d.s, long* %%i%d", id, ctr)
		g.emit("br label %%head%d", id)
		g.label(fmt.Sprintf("exit%d", id))
		g.depth--
	case memPrint:
		g.emit("call void %%print_int(long %s)", g.acc())
		g.emit("call void %%print_nl()")
	case memMix:
		x := g.acc()
		g.emit("%s.m = mul long %s, 3", x, x)
		g.emit("%s.s = add long %s.m, %d", x, x, arg)
		g.setAcc(x + ".s")
	}
}
