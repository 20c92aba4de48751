package llee

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/minic"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// compileChain compiles n functions f0..f{n-1}, each calling the next,
// and a main calling f0.
func compileChain(t *testing.T, n int) *core.Module {
	t.Helper()
	// Defined deepest-first so every call sees its callee declared.
	src := ""
	for i := n - 1; i >= 0; i-- {
		callee := "return a + x;"
		if i+1 < n {
			callee = fmt.Sprintf("return a + f%d(x) + x;", i+1)
		}
		src += fmt.Sprintf("int f%d(int x) { int i, a = 0; for (i = 0; i < x; i++) a += i * x; %s }\n", i, callee)
	}
	src += "int main() { return f0(7); }\n"
	m, err := minic.Compile("chain.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestConcurrentDemandSingleFlight: 8 goroutines demand every function of
// one module state at once. Exactly one demand per function performs the
// translation, every demander gets that one translation, and it is the
// record the table holds for write-back and later sessions. Run under
// -race by CI.
func TestConcurrentDemandSingleFlight(t *testing.T) {
	m := compileChain(t, 24)
	sys := NewSystem()
	defer sys.Close()
	ms, err := sys.state(m, target.VX86)
	if err != nil {
		t.Fatal(err)
	}
	var fns []*core.Function
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			fns = append(fns, f)
		}
	}
	const goroutines = 8
	results := make([][]*codegen.NativeFunc, goroutines)
	performed := make([][]bool, goroutines)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, f := range fns {
				nf, did, err := ms.code(&ms.plan, f, false)
				if err != nil {
					t.Errorf("demand %%%s: %v", f.Name(), err)
					return
				}
				results[g] = append(results[g], nf)
				performed[g] = append(performed[g], did)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, f := range fns {
		n := 0
		for g := range results {
			if performed[g][i] {
				n++
			}
			if results[g][i] != results[0][i] {
				t.Errorf("goroutine %d got another translation of %%%s than goroutine 0", g, f.Name())
			}
		}
		if n != 1 {
			t.Errorf("%%%s: %d demands performed the translation, want 1", f.Name(), n)
		}
		if ms.held[f.Name()].NativeFunc != results[0][i] {
			t.Errorf("%%%s: the table's record is not the demanded translation", f.Name())
		}
	}
	if len(ms.held) != len(fns) {
		t.Errorf("the table holds %d functions, want %d", len(ms.held), len(fns))
	}
}

// TestDemandPanicReleasesWaiters: a panic while translating fails the
// demand that ran it and every later demand of that name with
// ErrTranslate, instead of leaving them waiting forever or ending the
// process, and publishes no code. A session's run, whose first demand
// hits the same translator, fails with ErrTranslate too.
func TestDemandPanicReleasesWaiters(t *testing.T) {
	m := compileChain(t, 1)
	sys := NewSystem()
	defer sys.Close()
	ms, err := sys.state(m, target.VX86)
	if err != nil {
		t.Fatal(err)
	}
	// A tier-2 plan with no profile: picking f0's tier panics, outside
	// the code generator's own recovery.
	ms.plan.tr2 = ms.tr.WithTier2(nil)
	f := m.Function("f0")
	if nf, performed, err := ms.code(&ms.plan, f, false); nf != nil || !performed || !errors.Is(err, ErrTranslate) ||
		!strings.Contains(err.Error(), "%f0:") {
		t.Errorf("the demand that ran the panicking translator = (%v, %v, %v), want (nil, true, ErrTranslate naming %%f0)", nf, performed, err)
	}
	for i := 0; i < 2; i++ {
		nf, performed, err := ms.code(&ms.plan, f, false)
		if nf != nil || performed || !errors.Is(err, ErrTranslate) {
			t.Errorf("demand after the panic = (%v, %v, %v), want (nil, false, ErrTranslate)", nf, performed, err)
		}
	}
	s, err := sys.NewSession(m, target.VX86, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), "main"); !errors.Is(err, ErrTranslate) {
		t.Errorf("a run reaching the function = %v, want ErrTranslate", err)
	}
	if n := len(s.ms.nobj.Funcs); n != 0 || ms.unwritten {
		t.Errorf("a failed translation published code: %d functions linked, unwritten = %v", n, ms.unwritten)
	}
}

// TestTranslateAheadPanicIsErrTranslate: a panic while translating ahead
// of execution fails that call with ErrTranslate naming the function it
// was on, publishes nothing, and releases the state, so a second Preload
// and an offline translation fail the same way instead of hanging.
func TestTranslateAheadPanicIsErrTranslate(t *testing.T) {
	m := compileChain(t, 4)
	sys := NewSystem(WithStorage(NewMemStorage()))
	defer sys.Close()
	sess, err := sys.NewSession(m, target.VX86, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ms := sess.ms
	// A tier-2 plan with no profile: picking the first function's tier
	// panics, outside the code generator's own recovery.
	ms.plan.tr2 = ms.tr.WithTier2(nil)
	first := m.Functions[slices.IndexFunc(m.Functions, func(f *core.Function) bool { return !f.IsDeclaration() })]
	nobj := ms.nobj // a cold start's: it holds nothing
	calls := []func() error{
		func() error { return sys.Preload(m, target.VX86) },
		func() error { return sys.Preload(m, target.VX86) },
		sess.TranslateOffline,
	}
	for i, call := range calls {
		err := call()
		if !errors.Is(err, ErrTranslate) || !strings.Contains(err.Error(), "%"+first.Name()+":") {
			t.Errorf("call %d = %v, want ErrTranslate naming %%%s", i, err, first.Name())
		}
	}
	if rec := ms.held[first.Name()].NativeFunc; rec != nil || ms.nobj != nobj || ms.hit {
		t.Errorf("a failed translation published code: record %v, object replaced: %v, hit: %v", rec != nil, ms.nobj != nobj, ms.hit)
	}
}

// TestLaterSessionInstallsDemandedCode: what one session demanded is the
// table's code, so a session created afterwards on the same System
// installs it up front. Once every defined function was demanded, the
// later session demands nothing, retires the cycles of a session that
// installed a Preloaded module, and is reusable; a Preload then has
// nothing left to translate.
func TestLaterSessionInstallsDemandedCode(t *testing.T) {
	m := compileChain(t, 6)
	run := func(s *Session) uint64 {
		t.Helper()
		r, err := s.Run(context.Background(), "main")
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	pre := NewSystem()
	defer pre.Close()
	if err := pre.Preload(m, target.VX86); err != nil {
		t.Fatal(err)
	}
	ps, err := pre.NewSession(m, target.VX86, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := run(ps)

	reg := telemetry.New()
	sys := NewSystem(WithStorage(NewMemStorage()), WithTelemetry(reg))
	defer sys.Close()
	first, err := sys.NewSession(m, target.VX86, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	run(first)
	if n := first.Machine().Stats.JITRequests; n != uint64(first.ms.defined) {
		t.Fatalf("the first session demanded %d functions, want all %d", n, first.ms.defined)
	}
	later, err := sys.NewSession(m, target.VX86, io.Discard, WithReuse(true))
	if err != nil {
		t.Fatal(err)
	}
	if !later.Resettable() {
		t.Error("a session created after every function was demanded is not resettable")
	}
	if got := run(later); got != want {
		t.Errorf("the later session retired %d cycles, a preloaded one %d", got, want)
	}
	if n := later.Machine().Stats.JITRequests; n != 0 {
		t.Errorf("the later session demanded %d functions, want 0", n)
	}
	translated := reg.CounterValue(MetricTranslations)
	if err := sys.Preload(m, target.VX86); err != nil {
		t.Fatal(err)
	}
	if n := reg.CounterValue(MetricTranslations); n != translated {
		t.Errorf("Preload after the demands took %s from %d to %d, want no change", MetricTranslations, translated, n)
	}
}

// TestDemandsPreloadAndSessionsTranslateOnce: on one module state, 8
// goroutines run sessions that demand every function while a Preload and
// further NewSessions run beside them. Each function is translated
// exactly once, and every run prints the same answer. Run under -race by
// CI.
func TestDemandsPreloadAndSessionsTranslateOnce(t *testing.T) {
	m := compileChain(t, 24)
	reg := telemetry.New()
	sys := NewSystem(WithStorage(NewMemStorage()), WithTelemetry(reg))
	defer sys.Close()
	const goroutines = 8
	var wg sync.WaitGroup
	values := make([]uint64, goroutines)
	start := make(chan struct{})
	for g := range values {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := sys.NewSession(m, target.VX86, io.Discard)
			if err != nil {
				t.Error(err)
				return
			}
			<-start
			r, err := s.Run(context.Background(), "main")
			if err != nil {
				t.Error(err)
				return
			}
			values[g] = r.Value
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		if err := sys.Preload(m, target.VX86); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 4; i++ {
			if _, err := sys.NewSession(m, target.VX86, io.Discard); err != nil {
				t.Error(err)
			}
		}
	}()
	close(start)
	wg.Wait()
	for g, v := range values {
		if v != values[0] {
			t.Errorf("goroutine %d's run returned %d, goroutine 0's %d", g, v, values[0])
		}
	}
	s, err := sys.NewSession(m, target.VX86, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if n, want := reg.CounterValue(MetricTranslations), uint64(s.ms.defined); n != want {
		t.Errorf("%s = %d, want each of the %d functions translated once", MetricTranslations, n, want)
	}
	if n := len(s.ms.nobj.Funcs); n != s.ms.defined {
		t.Errorf("a session after the Preload installs %d functions, want %d", n, s.ms.defined)
	}
}
