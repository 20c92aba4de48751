package codegen_test

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/target"
	"llva/internal/workloads"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// suiteTranslator is one translator of a suite module: a target and a
// tier, with the module's defined functions in module order.
type suiteTranslator struct {
	name  string // workload/target/tier
	tr    *codegen.Translator
	tier2 bool
	funcs []*core.Function
}

// suiteCache caches suiteTranslators' result: the tests share the
// translators, which every translation only reads.
var suiteCache struct {
	once sync.Once
	trs  []suiteTranslator
}

// suiteTranslators returns, for every suite module (two under -short)
// and both targets, a tier-1 translator and a tier-2 one guided by a
// profile of the tier-1 code, in module order.
func suiteTranslators(t *testing.T) []suiteTranslator {
	t.Helper()
	suiteCache.once.Do(func() { suiteCache.trs = buildSuiteTranslators(t) })
	if suiteCache.trs == nil {
		t.Fatal("building the suite's translators failed")
	}
	return suiteCache.trs
}

func buildSuiteTranslators(t *testing.T) []suiteTranslator {
	t.Helper()
	suite := workloads.All()
	if testing.Short() {
		suite = []*workloads.Workload{workloads.ByName("ft"), workloads.ByName("bc")}
	}
	var out []suiteTranslator
	for _, w := range suite {
		m, err := w.CompileOptimized()
		if err != nil {
			t.Fatal(err)
		}
		var funcs []*core.Function
		for _, f := range m.Functions {
			if !f.IsDeclaration() {
				funcs = append(funcs, f)
			}
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
			art, _ := suiteProfile(t, d, m, obj)
			name := w.Name + "/" + d.Name
			out = append(out,
				suiteTranslator{name + "/tier1", tr, false, funcs},
				suiteTranslator{name + "/tier2", tr.WithTier2(art), true, funcs})
		}
	}
	return out
}

// fingerprint is everything a translation returns that a machine loads.
func fingerprint(nf *codegen.NativeFunc) string {
	return fmt.Sprintf("%x %v %x", nf.Code, nf.Relocs, []byte(nf.Blocks))
}

// sequential translates every module with a lone TranslateModule per
// translator, keyed by translator and function name.
func sequential(t *testing.T, trs []suiteTranslator) map[string]string {
	t.Helper()
	want := map[string]string{}
	for _, c := range trs {
		obj, err := c.tr.TranslateModule()
		if err != nil {
			t.Fatal(err)
		}
		for _, nf := range obj.Funcs {
			want[c.name+"/"+nf.Name] = fingerprint(nf)
		}
	}
	return want
}

// lowerSlack is what a translation may allocate beyond the objects it
// returns. Nothing today: every scratch table is the pooled workspace's.
const lowerSlack = 0

// TestLowerAllocs holds TranslateFunction to "lowering allocates only
// what it returns": once warm, translating any suite function on either
// target and tier allocates one object per thing it returns — the
// NativeFunc, its code, its relocations if any, its block table at tier
// 1 — plus lowerSlack. A tier-2 translation of a hot function also
// clones, inlines and re-lays out the function's IR; the test measures
// that stage on its own (Tier2Transform) and holds the difference.
func TestLowerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what is put back, so a warm translation may build a fresh workspace")
	}
	// A collection may empty the pool between one translation and the
	// next; with none, every warm run finds the workspace the last left.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range suiteTranslators(t) {
		for _, f := range c.funcs {
			var nf *codegen.NativeFunc
			got := testing.AllocsPerRun(4, func() {
				var err error
				if nf, err = c.tr.TranslateFunction(f); err != nil {
					t.Fatal(err)
				}
			})
			if c.tier2 && c.tr.Tier2Takes(f.Name()) {
				got -= testing.AllocsPerRun(4, func() { c.tr.Tier2Transform(f) })
			}
			returned := 2 // the NativeFunc and its code
			if len(nf.Relocs) > 0 {
				returned++
			}
			if nf.Blocks != nil {
				returned++
			}
			if got > float64(returned+lowerSlack) {
				t.Errorf("%s %s: %v allocations, returns %d objects", c.name, f.Name(), got, returned)
			}
		}
	}
}

// TestWorkspaceReuseIsStateless holds every translation to a lone
// sequential TranslateModule's bytes when the pooled workspaces it runs
// in were last used for other functions, targets and tiers: state one
// lowering leaves behind (an uncleared bitset, a stale symbol) must not
// reach the next. It translates the suite's functions in reverse module
// order, alternating target and tier from one translation to the next,
// then from GOMAXPROCS goroutines sharing each translator.
func TestWorkspaceReuseIsStateless(t *testing.T) {
	trs := suiteTranslators(t)
	want := sequential(t, trs)
	check := func(how string, c suiteTranslator, f *core.Function) {
		nf, err := c.tr.TranslateFunction(f)
		if err != nil {
			t.Error(err)
			return
		}
		if key := c.name + "/" + f.Name(); fingerprint(nf) != want[key] {
			t.Errorf("%s: %s differs from a sequential translation", how, key)
		}
	}

	// trs holds each module's translators as vx86 tier 1, vx86 tier 2,
	// vsparc tier 1, vsparc tier 2; this order switches target and tier
	// at every step.
	rotation := []int{0, 3, 1, 2}
	for m := len(trs)/4 - 1; m >= 0; m-- {
		mod := trs[4*m : 4*m+4]
		funcs := mod[0].funcs
		for i := len(funcs) - 1; i >= 0; i-- {
			for _, k := range rotation {
				check("reverse order", mod[k], funcs[i])
			}
		}
	}

	type job struct {
		c suiteTranslator
		f *core.Function
	}
	var jobs []job
	for _, c := range trs {
		for _, f := range c.funcs {
			jobs = append(jobs, job{c, f})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				check("concurrent", jobs[i].c, jobs[i].f)
			}
		}()
	}
	wg.Wait()
}

// TestLowerPanicIsContained panics in the middle of lowering one
// function — its workspace written through register allocation — and
// expects a *codegen.PanicError naming it. The process then translates
// the suite again, every function equal to a sequential translation made
// before the panic, and none of them in the workspace the panic dropped.
func TestLowerPanicIsContained(t *testing.T) {
	trs := suiteTranslators(t)
	want := sequential(t, trs)

	victim := trs[0].funcs[len(trs[0].funcs)/2]
	boom := errors.New("injected")
	reused, restore := codegen.PanicInLowering(victim.Name(), boom)
	defer restore()
	nf, err := trs[0].tr.TranslateFunction(victim)
	var pe *codegen.PanicError
	if !errors.As(err, &pe) || pe.Func != victim.Name() || pe.Value != boom || nf != nil {
		t.Fatalf("a panic lowering %s returned %v, %v; want a *PanicError naming it", victim.Name(), nf, err)
	}

	got := sequential(t, trs)
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s differs after a lowering panicked", key)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d functions translated after the panic, %d before", len(got), len(want))
	}
	if reused() {
		t.Error("a lowering ran in the workspace a panic left half written")
	}
}
