package codegen_test

import (
	"bytes"
	"testing"

	"llva/internal/asm"
	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/minic"
	"llva/internal/passes"
	"llva/internal/prof"
	"llva/internal/target"
)

// coalesceHazards are the shapes that break a careless copy coalescer,
// each a function %f(long %n, long %k). copies is how many copies between
// virtual registers the coalescer must leave on either target: fewer
// would have merged registers that hold different values at once, more
// is the shuffle the pass exists to remove.
var coalesceHazards = []struct {
	name   string
	src    string
	copies int
}{
	// Two φs of one header exchange values each iteration. The exchange
	// needs three moves; the rest (initial values, %i, %acc) need none.
	{"swap", `
long %f(long %n, long %k) {
entry:
    br label %head
head:
    %x = phi long [ 1, %entry ], [ %y, %latch ]
    %y = phi long [ %k, %entry ], [ %x, %latch ]
    %i = phi long [ 0, %entry ], [ %i1, %latch ]
    %acc = phi long [ 0, %entry ], [ %acc1, %latch ]
    %d = sub long %x, %y
    %t = mul long %acc, 3
    br label %latch
latch:
    %acc1 = add long %t, %d
    %i1 = add long %i, 1
    %c = setlt long %i1, %n
    br bool %c, label %head, label %done
done:
    ret long %acc1
}`, 3},
	// The lost copy: the latch compares the φ, not its successor, after
	// the back-edge copy, and the φ is returned after the loop.
	{"lost-copy", `
long %f(long %n, long %k) {
entry:
    br label %loop
loop:
    %i = phi long [ %k, %entry ], [ %i1, %loop ]
    %i1 = add long %i, 3
    %c = setlt long %i, %n
    br bool %c, label %loop, label %done
done:
    %r = mul long %i, 5
    ret long %r
}`, 1},
	// A φ live on the loop's exit edge (for.end: ret s.phi) while its
	// latch copy sits before the conditional branch.
	{"exit-live", `
long %f(long %n, long %k) {
entry:
    br label %loop
loop:
    %s = phi long [ %k, %entry ], [ %s1, %loop ]
    %i = phi long [ 0, %entry ], [ %i1, %loop ]
    %s1 = add long %s, %i
    %i1 = add long %i, 1
    %c = setlt long %i1, %n
    br bool %c, label %loop, label %end
end:
    ret long %s
}`, 1},
	// A self-loop block whose φs all die in it: no copy survives.
	{"self-loop", `
long %f(long %n, long %k) {
entry:
    br label %loop
loop:
    %s = phi long [ %k, %entry ], [ %s1, %loop ]
    %i = phi long [ 0, %entry ], [ %i1, %loop ]
    %s1 = add long %s, %i
    %i1 = add long %i, 1
    %c = setlt long %i1, %n
    br bool %c, label %loop, label %end
end:
    ret long %s1
}`, 0},
	// A φ fed by a constant and by itself.
	{"const-and-self", `
long %f(long %n, long %k) {
entry:
    br label %loop
loop:
    %v = phi long [ 7, %entry ], [ %v, %loop ]
    %i = phi long [ 0, %entry ], [ %i1, %loop ]
    %i1 = add long %i, %v
    %c = setlt long %i1, %n
    br bool %c, label %loop, label %end
end:
    %r = add long %i1, %v
    ret long %r
}`, 0},
	// A float φ beside integer ones: classes stay apart, and the identity
	// cast %iu is a copy that goes. Two copies stay: %x's, which is read
	// after the loop, and %i's carrier — %iu, by then one register with
	// %i1, is live across the carrier's copy from %i1, and interference is
	// collected once, before any merge (no rebuild round).
	{"float-phi", `
long %f(long %n, long %k) {
entry:
    %kf = cast long %k to double
    br label %loop
loop:
    %x = phi double [ %kf, %entry ], [ %x1, %loop ]
    %i = phi long [ 0, %entry ], [ %i1, %loop ]
    %if = cast long %i to double
    %x1 = add double %x, %if
    %i1 = add long %i, 1
    %iu = cast long %i1 to ulong
    %c = setlt long %i1, %n
    br bool %c, label %loop, label %end
end:
    %r = cast double %x to long
    %r2 = cast ulong %iu to long
    %r3 = add long %r, %r2
    ret long %r3
}`, 2},
	// A φ live into an invoke's handler: merged with its carrier it must
	// stay in a frame slot, or the handler reads a register the unwound
	// callee never restored.
	{"handler-live", allocFuzzHelpers + `
long %f(long %n, long %k) {
entry:
    br label %loop
loop:
    %s = phi long [ %k, %entry ], [ %s1, %next ]
    %i = phi long [ 0, %entry ], [ %i1, %next ]
    %v = invoke long %maybe(long %i) to label %ok unwind label %caught
ok:
    br label %next
caught:
    %alt = add long %s, 1000
    br label %next
next:
    %w = phi long [ %v, %ok ], [ %alt, %caught ]
    %s1 = add long %s, %w
    %i1 = add long %i, 1
    %c = setlt long %i1, %n
    br bool %c, label %loop, label %end
end:
    ret long %s1
}`, 0},
}

// hazardMiniC are the same hazards as a compiler writes them: the swap
// through a temporary, the loop variable read after its increment was
// computed, the accumulator returned as of the iteration before.
var hazardMiniC = []struct{ name, src string }{
	{"swap", `
long f(long n, long k) {
	long x = 1; long y = k; long acc = 0;
	for (long i = 0; i < n; i = i + 1) {
		acc = acc * 3 + (x - y);
		long t = x; x = y; y = t;
	}
	return acc;
}`},
	{"lost-copy", `
long f(long n, long k) {
	long i = k; long prev = 0;
	while (i < n) { prev = i; i = i + 3; }
	return i * 5 + prev;
}`},
	{"exit-live", `
long f(long n, long k) {
	long s = k; long before = k;
	for (long i = 0; i < n; i = i + 1) { before = s; s = s + i; }
	return before;
}`},
}

// runEverywhere holds %f(args) on both targets, tier 1 and tier 2 (from
// a profile of the tier-1 run), to the interpreter's result and output.
func runEverywhere(t *testing.T, m *core.Module, args []uint64) {
	t.Helper()
	var iout bytes.Buffer
	ip, err := interp.New(m, &iout)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ip.Run("f", args...)
	if err != nil {
		t.Fatalf("interp: %v", err)
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
		if got, out := runNative(t, d, m, obj, args, p); got != want || out != iout.String() {
			t.Errorf("%s tier 1: f%v = %#x, interpreter %#x", d.Name, args, got, want)
		}
		obj2, err := tr.WithTier2(p.Artifact(m.Name, d.Name)).TranslateModule()
		if err != nil {
			t.Fatal(err)
		}
		if got, out := runNative(t, d, m, obj2, args, nil); got != want || out != iout.String() {
			t.Errorf("%s tier 2: f%v = %#x, interpreter %#x", d.Name, args, got, want)
		}
	}
}

// hazardArgs run each loop zero, one, an even, an odd and many times.
var hazardArgs = [][]uint64{{0, 5}, {1, 5}, {2, 9}, {7, 3}, {40, 11}}

func TestCoalesceHazards(t *testing.T) {
	for _, c := range coalesceHazards {
		t.Run(c.name, func(t *testing.T) {
			m, err := asm.Parse("hazard", c.src)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.Verify(m); err != nil {
				t.Fatal(err)
			}
			for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
				tr, err := codegen.New(d, m)
				if err != nil {
					t.Fatal(err)
				}
				before, after := tr.CoalesceCopies(m.Function("f"))
				if after != c.copies {
					t.Errorf("%s: %d of %d copies left, want %d", d.Name, after, before, c.copies)
				}
			}
			for _, args := range hazardArgs {
				runEverywhere(t, m, args)
			}
		})
	}
}

func TestCoalesceHazardsMiniC(t *testing.T) {
	for _, c := range hazardMiniC {
		t.Run(c.name, func(t *testing.T) {
			m, err := minic.Compile(c.name+".c", c.src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := passes.Optimize(m); err != nil {
				t.Fatal(err)
			}
			if err := core.Verify(m); err != nil {
				t.Fatal(err)
			}
			phis := 0
			for _, bb := range m.Function("f").Blocks {
				phis += len(bb.Phis())
			}
			if phis < 2 {
				t.Fatalf("the optimizer left %d φs: the hazard is not in the program", phis)
			}
			for _, args := range hazardArgs {
				runEverywhere(t, m, args)
			}
		})
	}
}
