package llee

import (
	"context"
	"strings"
	"testing"

	"llva/internal/asm"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/prof"
	"llva/internal/target"
)

// The one rule for self-modifying code (paper, Section 3.4): a replaced
// function's translation is invalid and the new body runs from the next
// invocation. The interpreter is the executable spec; every way native
// code reaches a machine must agree with it.

// smcDiffProg calls %kernel six times and replaces it after the third
// call. The two bodies compute different numbers, so running the stale
// one is visible in the output and in main's return value.
const smcDiffProg = `
declare void %llva.smc.replace(sbyte* %target, sbyte* %source)
declare void %print_int(long %v)
declare void %print_char(long %c)
declare void %print_nl()

long %kernel(long %x) {
entry:
    %r = mul long %x, 8
    ret long %r
}
long %kernel.tuned(long %x) {
entry:
    %r = add long %x, 1000
    ret long %r
}

int %main() {
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i2, %cont ]
    %sum = phi long [ 0, %entry ], [ %sum2, %cont ]
    %v = call long %kernel(long %i)
    %sum2 = add long %sum, %v
    call void %print_int(long %v)
    call void %print_char(long 32)
    %switch = seteq long %i, 2
    br bool %switch, label %replace, label %cont
replace:
    %t = cast long (long)* %kernel to sbyte*
    %s = cast long (long)* %kernel.tuned to sbyte*
    call void %llva.smc.replace(sbyte* %t, sbyte* %s)
    br label %cont
cont:
    %i2 = add long %i, 1
    %more = setlt long %i2, 6
    br bool %more, label %loop, label %done
done:
    call void %print_nl()
    %r = cast long %sum2 to int
    ret int %r
}
`

// smcSelfProg has %f replace itself with %g from inside its own loop:
// the active invocation must finish all its iterations on the old body
// (the invalidation overwrites the prologue, which an active invocation
// never re-executes; the loop header sits right behind it), and the next
// call must run %g.
const smcSelfProg = `
declare void %llva.smc.replace(sbyte* %target, sbyte* %source)
declare void %print_int(long %v)
declare void %print_nl()

long %f(long %n) {
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i2, %cont ]
    %at1 = seteq long %i, 1
    br bool %at1, label %replace, label %cont
replace:
    %t = cast long (long)* %f to sbyte*
    %s = cast long (long)* %g to sbyte*
    call void %llva.smc.replace(sbyte* %t, sbyte* %s)
    br label %cont
cont:
    %i2 = add long %i, 1
    %more = setlt long %i2, %n
    br bool %more, label %loop, label %done
done:
    %r = add long %i2, 100
    ret long %r
}
long %g(long %n) {
entry:
    %r = add long %n, 2000
    ret long %r
}

int %main() {
entry:
    %a = call long %f(long 5)
    call void %print_int(long %a)
    call void %print_nl()
    %b = call long %f(long 5)
    call void %print_int(long %b)
    call void %print_nl()
    %sum = add long %a, %b
    %r = cast long %sum to int
    ret int %r
}
`

func parseSMC(t *testing.T, name, src string) *core.Module {
	t.Helper()
	m, err := asm.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// interpret returns what the interpreter prints and returns for m.
func interpret(t *testing.T, m *core.Module) (string, int) {
	t.Helper()
	var out strings.Builder
	ip, err := interp.New(m, &out)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ip.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), v
}

// smcPaths are the ways a session can come by its code. Each starts a
// session of m on d over st (the cold path runs first and fills it) and
// says whether that session must report a cache hit.
var smcPaths = []struct {
	name string
	hit  bool
	open func(t *testing.T, st Storage, m *core.Module, d *target.Desc, out *strings.Builder) (*System, *Session)
}{
	{"cold", false, func(t *testing.T, st Storage, m *core.Module, d *target.Desc, out *strings.Builder) (*System, *Session) {
		return openSMC(t, NewSystem(WithStorage(st)), false, m, d, out)
	}},
	{"warm from storage", true, func(t *testing.T, st Storage, m *core.Module, d *target.Desc, out *strings.Builder) (*System, *Session) {
		return openSMC(t, NewSystem(WithStorage(st)), false, m, d, out)
	}},
	{"preloaded", true, func(t *testing.T, st Storage, m *core.Module, d *target.Desc, out *strings.Builder) (*System, *Session) {
		return openSMC(t, NewSystem(), true, m, d, out)
	}},
	{"preloaded + reuse", true, func(t *testing.T, st Storage, m *core.Module, d *target.Desc, out *strings.Builder) (*System, *Session) {
		sys, s := openSMC(t, NewSystem(), true, m, d, out, WithReuse(true))
		if !s.Resettable() {
			t.Error("preloaded WithReuse session is not resettable before its run")
		}
		return sys, s
	}},
	{"tier 2, cache-warm", true, func(t *testing.T, st Storage, m *core.Module, d *target.Desc, out *strings.Builder) (*System, *Session) {
		// A sampled run stores the profile that arms tier 2. Rate 3: the
		// program retires a few hundred instructions.
		sys, s := openSMC(t, NewSystem(WithStorage(st)), false, m, d, &strings.Builder{}, WithProfiler(prof.NewProfiler(3)))
		if _, err := s.Run(context.Background(), "main"); err != nil {
			t.Fatal(err)
		}
		if err := s.StoreGuestProfile(); err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		sys, s = openSMC(t, NewSystem(WithStorage(st), WithTier2(true)), false, m, d, out)
		if s.ms.plan.tr2 == nil || heldTier2(s) == 0 {
			t.Errorf("tier 2 is not armed: profile %q, %d functions translated", s.ms.plan.profile, heldTier2(s))
		}
		return sys, s
	}},
}

func openSMC(t *testing.T, sys *System, preload bool, m *core.Module, d *target.Desc, out *strings.Builder, opts ...SessionOption) (*System, *Session) {
	t.Helper()
	if preload {
		if err := sys.Preload(m, d); err != nil {
			t.Fatal(err)
		}
	}
	s, err := sys.NewSession(m, d, out, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys, s
}

// TestSMCMatchesInterpreterOnEveryPath: llva.smc.replace means the same
// thing however the code being replaced reached the machine.
func TestSMCMatchesInterpreterOnEveryPath(t *testing.T) {
	for _, prog := range []struct{ name, src string }{
		{"replace-callee", smcDiffProg},
		{"replace-self", smcSelfProg},
	} {
		m := parseSMC(t, prog.name, prog.src)
		wantOut, wantVal := interpret(t, m)
		if prog.name == "replace-callee" && wantOut != "0 8 16 1003 1004 1005 \n" {
			t.Fatalf("interpreter prints %q", wantOut)
		}
		if prog.name == "replace-self" && wantOut != "105\n2005\n" {
			t.Fatalf("interpreter prints %q", wantOut)
		}
		for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
			st := NewMemStorage()
			for _, p := range smcPaths {
				t.Run(prog.name+"/"+d.Name+"/"+p.name, func(t *testing.T) {
					var out strings.Builder
					sys, s := p.open(t, st, m, d, &out)
					if s.CacheHit() != p.hit {
						t.Errorf("CacheHit = %v, want %v", s.CacheHit(), p.hit)
					}
					res, err := s.Run(context.Background(), "main")
					if err != nil {
						t.Fatal(err)
					}
					if out.String() != wantOut || int(int32(res.Value)) != wantVal {
						t.Errorf("printed %q and returned %d, interpreter %q and %d",
							out.String(), int32(res.Value), wantOut, wantVal)
					}
					if s.Resettable() {
						t.Error("session is resettable after acquiring an SMC redirect")
					}
					if err := sys.Close(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
