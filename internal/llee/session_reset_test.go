package llee

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"llva/internal/asm"
	"llva/internal/core"
	"llva/internal/mem"
	"llva/internal/minic"
	"llva/internal/target"
	"llva/internal/telemetry"
	"llva/internal/workloads"
)

// TestResetDifferentialWorkloads is the tentpole correctness gate: over
// the whole workload suite on both targets, a pooled session that ran
// once and was Reset must produce a bit-identical second run — same
// value, same instruction and cycle counts, same output — as a fresh
// session on the same preloaded state. The preloaded code itself must be
// byte-identical to codegen's TranslateModule.
func TestResetDifferentialWorkloads(t *testing.T) {
	suite := workloads.All()
	if testing.Short() {
		suite = suite[:4]
	}
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		for _, w := range suite {
			w := w
			t.Run(d.Name+"/"+w.Name, func(t *testing.T) {
				m, err := w.Compile()
				if err != nil {
					t.Fatal(err)
				}
				sys := NewSystem()
				if err := sys.Preload(m, d); err != nil {
					t.Fatal(err)
				}
				// The code translated ahead of execution is codegen's own
				// whole-module translation, function for function.
				ms, err := sys.state(m, d)
				if err != nil {
					t.Fatal(err)
				}
				ref := translateModule(t, m, d)
				if len(ms.held) != len(ref.Funcs) {
					t.Errorf("Preload holds %d functions, codegen translates %d", len(ms.held), len(ref.Funcs))
				}
				for _, nf := range ref.Funcs {
					if cf, ok := ms.held[nf.Name]; !ok || !sameCode(cf.NativeFunc, nf) {
						t.Errorf("%%%s: Preload's code differs from codegen's (held: %v)", nf.Name, ok)
					}
				}

				var freshOut bytes.Buffer
				fresh, err := sys.NewSession(m, d, &freshOut)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Run(context.Background(), "main")
				if err != nil {
					t.Fatal(err)
				}

				var out1 bytes.Buffer
				sess, err := sys.NewSession(m, d, &out1, WithReuse(true))
				if err != nil {
					t.Fatal(err)
				}
				if !sess.Resettable() {
					t.Fatal("preloaded WithReuse session is not resettable")
				}
				r1, err := sess.Run(context.Background(), "main")
				if err != nil {
					t.Fatal(err)
				}
				var out2 bytes.Buffer
				if err := sess.Reset(&out2, 0, "t2"); err != nil {
					t.Fatal(err)
				}
				r2, err := sess.Run(context.Background(), "main")
				if err != nil {
					t.Fatal(err)
				}

				for i, r := range []Result{r1, r2} {
					if r.Value != want.Value || r.Instrs != want.Instrs || r.Cycles != want.Cycles {
						t.Errorf("run %d: {v=%d i=%d c=%d}, fresh {v=%d i=%d c=%d}",
							i+1, r.Value, r.Instrs, r.Cycles, want.Value, want.Instrs, want.Cycles)
					}
				}
				if out1.String() != freshOut.String() || out2.String() != freshOut.String() {
					t.Errorf("output diverged: fresh %d bytes, run1 %d, run2 %d",
						freshOut.Len(), out1.Len(), out2.Len())
				}
			})
		}
	}
}

// TestSteadyStateRunAllocs holds a pooled session's Reset+Run, the serve
// and execute steady state, to the host heap allocations it makes: two
// per op on every suite program, however long the guest runs. The block
// engine itself must allocate nothing, so any growth here is a regression.
func TestSteadyStateRunAllocs(t *testing.T) {
	const maxAllocs = 2
	suite := workloads.All()
	if testing.Short() {
		suite = []*workloads.Workload{workloads.ByName("vortex"), workloads.ByName("gap")}
	}
	for _, w := range suite {
		t.Run(w.Name, func(t *testing.T) {
			m, err := w.CompileOptimized()
			if err != nil {
				t.Fatal(err)
			}
			sys := NewSystem()
			if err := sys.Preload(m, target.VX86); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			sess, err := sys.NewSession(m, target.VX86, &out, WithReuse(true))
			if err != nil {
				t.Fatal(err)
			}
			// Ten runs average out the first few's one-time growth of the
			// guest heap's host-side tables.
			n := testing.AllocsPerRun(10, func() {
				out.Reset()
				if err := sess.Reset(&out, 0, ""); err != nil {
					t.Fatal(err)
				}
				if _, err := sess.Run(context.Background(), "main"); err != nil && !errors.Is(err, ErrExit) {
					t.Fatal(err)
				}
			})
			if n > maxAllocs {
				t.Errorf("Reset+Run allocates %v times, want at most %d", n, maxAllocs)
			}
		})
	}
}

// secretProg plants a recognizable pattern across a heap block and the
// stack, exactly what a malicious prior tenant would leave behind for
// the next tenant of a pooled session to harvest.
const secretProg = `
int main() {
	int i;
	int buf[64];
	int *p = malloc(8192);
	for (i = 0; i < 2048; i++) p[i] = 0x5EC2E75E;
	for (i = 0; i < 64; i++) buf[i] = 0x5EC2E75E;
	return p[0];
}
`

// TestResetErasesSecret is the adversarial isolation gate: after tenant
// A's run planted a secret, Reset hands the session to tenant B with no
// trace of it anywhere in the address space — verified by a host-side
// scan of the entire guest memory, which is strictly stronger than
// anything guest code could observe.
func TestResetErasesSecret(t *testing.T) {
	m, err := minic.Compile("secret.c", secretProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	sys := NewSystem()
	if err := sys.Preload(m, target.VX86); err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession(m, target.VX86, io.Discard, WithReuse(true), WithTenant("A"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}

	needle := bytes.Repeat([]byte{0x5e, 0xe7, 0xc2, 0x5e}, 4) // 16-byte run of the secret
	gm := sess.Env().Mem
	scan := func() bool {
		view, err := gm.Bytes(mem.NullGuard, gm.Size()-mem.NullGuard)
		if err != nil {
			t.Fatal(err)
		}
		found := bytes.Contains(view, needle)
		runtime.KeepAlive(gm) // the view is valid while its memory is reachable
		return found
	}
	if !scan() {
		t.Fatal("sanity: secret not found in memory after tenant A's run")
	}
	if err := sess.Reset(io.Discard, 0, "B"); err != nil {
		t.Fatal(err)
	}
	if scan() {
		t.Fatal("secret from tenant A survived Reset into tenant B's session")
	}
}

// TestResetTenantAccounting: after Reset re-arms the session for a new
// tenant, cycles bill to the new tenant and the old tenant's ledger
// stops moving.
func TestResetTenantAccounting(t *testing.T) {
	m, err := minic.Compile("acct.c", `int main() { int i, a = 0; for (i = 0; i < 1000; i++) a += i; return a; }`)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	sys := NewSystem()
	if err := sys.Preload(m, target.VX86); err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession(m, target.VX86, io.Discard, WithReuse(true), WithTenant("A"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	aCycles := sys.TenantUsage("A").Cycles
	if aCycles == 0 {
		t.Fatal("tenant A billed no cycles")
	}
	if err := sess.Reset(io.Discard, 0, "B"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if got := sys.TenantUsage("A").Cycles; got != aCycles {
		t.Errorf("tenant A's ledger moved after handoff: %d -> %d", aCycles, got)
	}
	if got := sys.TenantUsage("B").Cycles; got != aCycles {
		t.Errorf("tenant B billed %d cycles, want %d (deterministic rerun)", got, aCycles)
	}
}

// TestOnlineSessionNotResettable: without Preload or a complete cache a
// session has code left to translate on demand, after any seal —
// WithReuse must not make such a session poolable.
func TestOnlineSessionNotResettable(t *testing.T) {
	m := compileTest(t)
	sys := NewSystem()
	sess, err := sys.NewSession(m, target.VX86, io.Discard, WithReuse(true))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Resettable() {
		t.Fatal("online session reports Resettable")
	}
	if err := sess.Reset(io.Discard, 0, "x"); !errors.Is(err, ErrNotReusable) {
		t.Fatalf("Reset on online session = %v, want ErrNotReusable", err)
	}
}

// TestSMCRedirectDisqualifiesReset: a run that self-modifies via
// llva.smc.replace leaves the session carrying a private redirect map;
// it must drop out of the pool rather than leak v2 into the next
// tenant's "fresh" session.
func TestSMCRedirectDisqualifiesReset(t *testing.T) {
	src := `
declare void %llva.smc.replace(sbyte* %t, sbyte* %s)
int %v1(int %x) {
entry:
    %r = add int %x, 1
    ret int %r
}
int %v2(int %x) {
entry:
    %r = add int %x, 2
    ret int %r
}
int %main() {
entry:
    %t = cast int (int)* %v1 to sbyte*
    %s = cast int (int)* %v2 to sbyte*
    call void %llva.smc.replace(sbyte* %t, sbyte* %s)
    %r = call int %v1(int 1)
    ret int %r
}
`
	m, err := asm.Parse("smc", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	sys := NewSystem()
	if err := sys.Preload(m, target.VX86); err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession(m, target.VX86, io.Discard, WithReuse(true))
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Resettable() {
		t.Fatal("session not resettable before the SMC run")
	}
	// main's call was patched straight to v1's preloaded body; the replace
	// makes that body unreachable, so the call lands in v2 as it does in
	// the interpreter. The redirect map is what must evict the session
	// from any pool.
	res, err := sess.Run(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	if int32(res.Value) != 3 {
		t.Fatalf("smc run = %d, want 3 (the interpreter's result)", int32(res.Value))
	}
	if sess.Resettable() {
		t.Fatal("session still resettable after acquiring an SMC redirect")
	}
	if err := sess.Reset(io.Discard, 0, "x"); !errors.Is(err, ErrNotReusable) {
		t.Fatalf("Reset after SMC = %v, want ErrNotReusable", err)
	}
}

// TestResetGasRearm: gas budgets re-arm per handoff — a pooled session
// inherits nothing of the previous run's spend, and an out-of-gas run
// still resets cleanly (traps unwind at block boundaries).
func TestResetGasRearm(t *testing.T) {
	m := compileTest(t)
	sys := NewSystem()
	if err := sys.Preload(m, target.VX86); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	sess, err := sys.NewSession(m, target.VX86, &out, WithReuse(true), WithGas(200))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), "main"); !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("tiny budget run = %v, want ErrOutOfGas", err)
	}
	out.Reset()
	if err := sess.Reset(&out, 10_000_000, "B"); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), "main")
	if err != nil {
		t.Fatalf("re-armed run: %v", err)
	}
	if out.String() != "328350\n" || res.Value != 0 {
		t.Errorf("re-armed run: value=%d out=%q", res.Value, out.String())
	}
}

// TestPreloadCompletesPartialCache: a run writes back what it translated,
// which leaves out every function it never called (spare, here, which
// nothing calls). Preload over that
// store must translate what is missing, and only that, so that its
// WithReuse sessions are sealed with the whole module installed: nothing is
// translated after the seal, and every reset run is bit-identical to a fresh
// session's.
func TestPreloadCompletesPartialCache(t *testing.T) {
	const src = hotProg + "int spare(int n) { return classify(n) + 1; }\n"
	const ref = "5144\n"
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		t.Run(d.Name, func(t *testing.T) {
			st := NewMemStorage()
			m, err := minic.Compile("hot.c", src)
			if err != nil {
				t.Fatal(err)
			}
			online := NewSystem(WithStorage(st))
			s, err := online.NewSession(m, d, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(context.Background(), "main"); err != nil {
				t.Fatal(err)
			}
			if err := online.Close(); err != nil {
				t.Fatal(err)
			}

			if m, err = minic.Compile("hot.c", src); err != nil {
				t.Fatal(err)
			}
			reg := telemetry.New()
			sys := NewSystem(WithStorage(st), WithTelemetry(reg))
			defer sys.Close()
			if s, err = sys.NewSession(m, d, io.Discard); err != nil {
				t.Fatal(err)
			}
			if _, spare := s.ms.held["spare"]; !s.CacheHit() || spare || len(s.ms.held) != s.ms.defined-1 {
				t.Fatalf("the run's cache is not the module less spare: hit=%v, %d of %d functions held",
					s.CacheHit(), len(s.ms.held), s.ms.defined)
			}
			if err := sys.Preload(m, d); err != nil {
				t.Fatal(err)
			}
			if n := reg.CounterValue(MetricTranslations); n != 1 {
				t.Errorf("Preload translated %d functions, want spare alone", n)
			}
			var freshOut strings.Builder
			fresh, err := sys.NewSession(m, d, &freshOut)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run(context.Background(), "main")
			if err != nil {
				t.Fatal(err)
			}
			if freshOut.String() != ref {
				t.Fatalf("fresh session printed %q, want %q", freshOut.String(), ref)
			}

			var out strings.Builder
			sess, err := sys.NewSession(m, d, &out, WithReuse(true))
			if err != nil {
				t.Fatal(err)
			}
			if !sess.Resettable() {
				t.Fatal("WithReuse session of a preloaded module is not resettable")
			}
			for run := 0; run < 3; run++ {
				if run > 0 {
					out.Reset()
					if err := sess.Reset(&out, 0, ""); err != nil {
						t.Fatal(err)
					}
				}
				r, err := sess.Run(context.Background(), "main")
				if err != nil {
					t.Fatal(err)
				}
				if r.Value != want.Value || r.Instrs != want.Instrs || r.Cycles != want.Cycles || out.String() != ref {
					t.Errorf("run %d: {v=%d i=%d c=%d} %q, fresh session {v=%d i=%d c=%d} %q", run,
						r.Value, r.Instrs, r.Cycles, out.String(), want.Value, want.Instrs, want.Cycles, ref)
				}
				if n := sess.Machine().Stats.JITRequests; n != 0 {
					t.Errorf("run %d: %d functions translated on demand after the seal", run, n)
				}
			}
		})
	}
}
