package workloads

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/machine"
	"llva/internal/mem"
	"llva/internal/rt"
	"llva/internal/target"
)

func interpRun(t *testing.T, m *core.Module) (int, string) {
	t.Helper()
	code, out, err := interpret(m)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

func interpret(m *core.Module) (int, string, error) {
	var out strings.Builder
	ip, err := interp.New(m, &out)
	if err != nil {
		return 0, "", fmt.Errorf("interp: %w", err)
	}
	code, err := ip.RunMain()
	if err != nil {
		return 0, "", fmt.Errorf("run: %v\noutput: %s", err, out.String())
	}
	return code, out.String(), nil
}

// interpreted is the interpreter's run of one (workload, O0 or O2)
// module, made once per test binary and kept, error included: the tests
// that read it each assert their own property of it.
type interpreted struct {
	once sync.Once
	code int
	out  string
	err  error
}

type runKey struct {
	name string
	opt  bool // O2
}

var interpretedRuns sync.Map // runKey -> *interpreted

// interpretedRun returns the exit status and output of w's module, O2 if
// opt, on the interpreter.
func interpretedRun(t *testing.T, w *Workload, opt bool) (int, string) {
	t.Helper()
	v, _ := interpretedRuns.LoadOrStore(runKey{w.Name, opt}, &interpreted{})
	r := v.(*interpreted)
	r.once.Do(func() {
		compile := w.Compile
		if opt {
			compile = w.CompileOptimized
		}
		m, err := compile()
		if err != nil {
			r.err = err
			return
		}
		r.code, r.out, r.err = interpret(m)
	})
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.code, r.out
}

func machineRun(t *testing.T, m *core.Module, d *target.Desc) (int, string) {
	t.Helper()
	tr, err := codegen.New(d, m)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tr.TranslateModule()
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	var out strings.Builder
	env := rt.NewEnv(mem.New(0, true), &out)
	mc, err := machine.New(d, m, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.LoadObject(obj); err != nil {
		t.Fatal(err)
	}
	v, err := mc.Run("main")
	if err != nil {
		t.Fatalf("machine %s: %v\noutput: %s", d.Name, err, out.String())
	}
	return int(int32(v)), out.String()
}

// TestWorkloadsCompile checks every workload compiles, verifies, and
// optimizes cleanly.
func TestWorkloadsCompile(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			if _, err := w.Compile(); err != nil {
				t.Fatal(err)
			}
			if _, err := w.CompileOptimized(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWorkloadsRun runs every workload on the interpreter and checks a
// zero exit status and non-trivial output. (Run-to-run determinism is
// enforced by TestWorkloadGoldenOutputs, which pins the exact bytes.)
func TestWorkloadsRun(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			code1, out1 := interpretedRun(t, w, false)
			if code1 != 0 {
				t.Errorf("exit status %d, want 0\noutput: %s", code1, out1)
			}
			if len(strings.TrimSpace(out1)) == 0 {
				t.Error("no output")
			}
		})
	}
}

// TestWorkloadsOptimizationPreservesOutput runs each workload unoptimized
// and after O2 and compares outputs.
func TestWorkloadsOptimizationPreservesOutput(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			_, out0 := interpretedRun(t, w, false)
			_, out2 := interpretedRun(t, w, true)
			if out0 != out2 {
				t.Errorf("O2 changed output:\nO0: %q\nO2: %q", out0, out2)
			}
		})
	}
}

// TestWorkloadsCrossEngine runs every optimized workload on both
// simulated processors and compares against the interpreter — the full
// Table 2 configuration must be semantically sound end to end.
func TestWorkloadsCrossEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-engine sweep is slow")
	}
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			m, err := w.CompileOptimized()
			if err != nil {
				t.Fatal(err)
			}
			refCode, refOut := interpretedRun(t, w, true)
			for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
				code, out := machineRun(t, m, d)
				if code != refCode || out != refOut {
					t.Errorf("%s diverges:\ninterp: %d %q\n%s: %d %q",
						d.Name, refCode, refOut, d.Name, code, out)
				}
			}
		})
	}
}

func TestWorkloadRegistry(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Errorf("suite has %d workloads, want 17 (Table 2 rows)", len(all))
	}
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		if w.LOC() < 30 {
			t.Errorf("workload %s suspiciously small: %d LOC", w.Name, w.LOC())
		}
		if ByName(w.Name) != w {
			// ByName returns a fresh slice element; compare by name only.
			if ByName(w.Name) == nil || ByName(w.Name).Name != w.Name {
				t.Errorf("ByName(%s) broken", w.Name)
			}
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName(nosuch) should be nil")
	}
}
