package llee

import (
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
// translation, every demander gets that one translation, and all of them
// settle for write-back. Run under -race by CI.
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
				nf, did, err := ms.demand(f.Name(), f)
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
	settled := ms.settled()
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
		if settled[f.Name()] != results[0][i] {
			t.Errorf("%%%s: settled translation is not the demanded one", f.Name())
		}
	}
	if len(settled) != len(fns) {
		t.Errorf("%d translations settled, want %d", len(settled), len(fns))
	}
}

// TestDemandPanicReleasesWaiters: a panic while translating fails the
// demand that ran it and every later demand of that name with
// ErrTranslate, instead of leaving them waiting forever, and settles no
// code for write-back.
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
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the translator's panic did not reach the demand that ran it")
			}
		}()
		ms.demand(f.Name(), f)
	}()
	for i := 0; i < 2; i++ {
		nf, performed, err := ms.demand(f.Name(), f)
		if nf != nil || performed || !errors.Is(err, ErrTranslate) {
			t.Errorf("demand after the panic = (%v, %v, %v), want (nil, false, ErrTranslate)", nf, performed, err)
		}
	}
	if got := ms.settled(); got != nil {
		t.Errorf("settled = %v after a failed translation, want nil", got)
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
	if ms.held != nil || ms.nobj != nobj {
		t.Errorf("a failed translation published code: %d records held, object replaced: %v", len(ms.held), ms.nobj != nobj)
	}
}
