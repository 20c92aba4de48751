package pipeline

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/minic"
	"llva/internal/target"
	"llva/internal/telemetry"
	"llva/internal/workloads"
)

// sameObject asserts two native objects are byte-identical: same
// function order, code bytes, relocations, and instruction counts.
func sameObject(t *testing.T, seq, par *codegen.NativeObject) {
	t.Helper()
	if seq.TargetName != par.TargetName || seq.Module != par.Module {
		t.Fatalf("header mismatch: %s/%s vs %s/%s",
			seq.TargetName, seq.Module, par.TargetName, par.Module)
	}
	if len(seq.Funcs) != len(par.Funcs) {
		t.Fatalf("function count %d vs %d", len(seq.Funcs), len(par.Funcs))
	}
	for i, sf := range seq.Funcs {
		pf := par.Funcs[i]
		if sf.Name != pf.Name {
			t.Fatalf("func %d ordering: %q vs %q", i, sf.Name, pf.Name)
		}
		if !bytes.Equal(sf.Code, pf.Code) {
			t.Errorf("%%%s: code differs (%d vs %d bytes)", sf.Name, len(sf.Code), len(pf.Code))
		}
		if len(sf.Relocs) != len(pf.Relocs) {
			t.Errorf("%%%s: reloc count %d vs %d", sf.Name, len(sf.Relocs), len(pf.Relocs))
			continue
		}
		for j := range sf.Relocs {
			if sf.Relocs[j] != pf.Relocs[j] {
				t.Errorf("%%%s: reloc %d differs: %+v vs %+v", sf.Name, j, sf.Relocs[j], pf.Relocs[j])
			}
		}
		if sf.NumInstrs != pf.NumInstrs || sf.NumLLVA != pf.NumLLVA {
			t.Errorf("%%%s: counts (%d,%d) vs (%d,%d)",
				sf.Name, sf.NumInstrs, sf.NumLLVA, pf.NumInstrs, pf.NumLLVA)
		}
	}
}

// TestParallelTranslateDifferential asserts the worker-pool translation
// of every workload, on both targets, is byte-identical to the
// sequential Translator.TranslateModule reference.
func TestParallelTranslateDifferential(t *testing.T) {
	for _, w := range workloads.All() {
		m, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
			t.Run(w.Name+"/"+d.Name, func(t *testing.T) {
				tr, err := codegen.New(d, m)
				if err != nil {
					t.Fatal(err)
				}
				seq, err := tr.TranslateModule()
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 4, 8} {
					par, err := TranslateModule(m, d, tr.TranslateFunction, workers, nil)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					sameObject(t, seq, par)
				}
			})
		}
	}
}

func compileN(t testing.TB, nfuncs int) *core.Module {
	t.Helper()
	// f{n-1} is a leaf; every f{i} calls f{i+1}; main calls f0. Defined
	// deepest-first so every call sees its callee already declared.
	src := ""
	for i := nfuncs - 1; i >= 0; i-- {
		callee := "return a + x;"
		if i+1 < nfuncs {
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

// TestConcurrentDemandSingleFlight hammers Demand for the same
// functions from many goroutines while speculation floods the queue:
// every function must be translated exactly once (single-flight), and
// every caller must get the same result. Run under -race by CI.
func TestConcurrentDemandSingleFlight(t *testing.T) {
	m := compileN(t, 24)
	tr, err := codegen.New(target.VX86, m)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	s := NewSpeculator(tr.TranslateFunction, 4, reg)

	var fns []*core.Function
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			fns = append(fns, f)
		}
	}
	// Flood speculation with everything, then demand everything from 8
	// goroutines at once.
	s.Enqueue(fns)
	results := make([][]*codegen.NativeFunc, 8)
	performed := make([]atomic.Int64, len(fns))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, f := range fns {
				nf, did, err := s.Demand(f.Name(), f)
				if err != nil {
					t.Errorf("demand %%%s: %v", f.Name(), err)
					return
				}
				if did {
					performed[i].Add(1)
				}
				results[g] = append(results[g], nf)
				s.EnqueueCallees(f, nil, func(string) bool { return false })
			}
		}(g)
	}
	wg.Wait()
	leftover := s.Close()

	// At most one of the 8 demanders of each function performed the
	// translation itself; the rest hit or joined the shared flight.
	for i := range fns {
		if n := performed[i].Load(); n > 1 {
			t.Errorf("%%%s: %d demanders performed the translation, want <= 1", fns[i].Name(), n)
		}
	}

	// Single-flight: one translation per function, no matter how demand
	// and speculation raced.
	total := reg.CounterValue(MetricSpecTranslated) + reg.CounterValue(MetricDemandInline)
	if total != uint64(len(fns)) {
		t.Errorf("translated %d times for %d functions (spec=%d inline=%d)",
			total, len(fns),
			reg.CounterValue(MetricSpecTranslated), reg.CounterValue(MetricDemandInline))
	}
	// Same pointer observed by every demander (the flight's result).
	for g := 1; g < 8; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d saw a different translation for %%%s", g, fns[i].Name())
			}
		}
	}
	// Everything was demanded, so nothing is waste.
	if len(leftover) != 0 {
		t.Errorf("%d unconsumed speculative translations, want 0", len(leftover))
	}
	if w := reg.CounterValue(MetricSpecWaste); w != 0 {
		t.Errorf("waste = %d, want 0", w)
	}
}

// TestSpeculatorWasteAndSalvage enqueues without demanding: Close must
// count the unconsumed translations as waste and hand them back for
// cache write-back.
func TestSpeculatorWasteAndSalvage(t *testing.T) {
	m := compileN(t, 6)
	tr, err := codegen.New(target.VSPARC, m)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	s := NewSpeculator(tr.TranslateFunction, 2, reg)
	var fns []*core.Function
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			fns = append(fns, f)
		}
	}
	s.Enqueue(fns)
	// Close discards whatever is still queued (prompt shutdown), so give
	// the workers time to drain the backlog first.
	deadline := time.Now().Add(10 * time.Second)
	for reg.CounterValue(MetricSpecTranslated) < uint64(len(fns)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	leftover := s.Close()
	translated := reg.CounterValue(MetricSpecTranslated)
	if translated == 0 {
		t.Fatal("speculation translated nothing")
	}
	if uint64(len(leftover)) != translated {
		t.Errorf("salvaged %d, translated %d", len(leftover), translated)
	}
	if reg.CounterValue(MetricSpecWaste) != translated {
		t.Errorf("waste = %d, want %d", reg.CounterValue(MetricSpecWaste), translated)
	}
	// Salvaged translations are the real thing.
	ref, err := tr.TranslateFunction(m.Function("f0"))
	if err != nil {
		t.Fatal(err)
	}
	if got := leftover["f0"]; got == nil || !bytes.Equal(got.Code, ref.Code) {
		t.Error("salvaged translation of f0 does not match a fresh one")
	}
	// Close is idempotent and Enqueue after Close is a no-op.
	if again := s.Close(); again != nil {
		t.Error("second Close returned results")
	}
	s.Enqueue(fns)
}

// TestCallees checks static call-graph extraction order and filtering.
func TestCallees(t *testing.T) {
	src := `
int leaf(int x) { return x + 1; }
int mid(int x) { return leaf(x) * 2; }
int main() { print_int(mid(1)); print_int(leaf(2)); print_int(mid(3)); return 0; }
`
	m, err := minic.Compile("c.c", src)
	if err != nil {
		t.Fatal(err)
	}
	got := Callees(m.Function("main"))
	// print_int is a declaration: excluded. mid before leaf (first use),
	// each once.
	if len(got) != 2 || got[0].Name() != "mid" || got[1].Name() != "leaf" {
		names := make([]string, len(got))
		for i, f := range got {
			names[i] = f.Name()
		}
		t.Errorf("callees = %v, want [mid leaf]", names)
	}
}

// TestWorkers checks the worker-count resolution rule.
func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit count not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Error("defaulted count must be >= 1")
	}
}
