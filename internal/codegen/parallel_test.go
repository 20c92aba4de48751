package codegen_test

import (
	"bytes"
	"sync"
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/target"
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

// translateConcurrently translates every defined function of m on the
// one Translator tr from n goroutines at once, each taking every n-th
// function, as sessions translating at first call share their module's
// translator. The result is assembled in module order.
func translateConcurrently(tr *codegen.Translator, m *core.Module, n int) (*codegen.NativeObject, error) {
	var defs []*core.Function
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			defs = append(defs, f)
		}
	}
	out := make([]*codegen.NativeFunc, len(defs))
	errs := make([]error, len(defs))
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Walk the share backwards, so functions are lowered out of
			// module order and pooled workspaces pass between them.
			for i := len(defs) - 1 - g; i >= 0; i -= n {
				out[i], errs[i] = tr.TranslateFunction(defs[i])
			}
		}(g)
	}
	wg.Wait()
	obj := &codegen.NativeObject{TargetName: tr.Target().Name, Module: m.Name}
	for i, nf := range out {
		if errs[i] != nil {
			return nil, errs[i]
		}
		obj.Add(nf)
	}
	return obj, nil
}

// TestParallelTranslateDifferential asserts that translating every
// workload's functions concurrently on one shared Translator, on both
// targets, is byte-identical to the sequential
// Translator.TranslateModule reference.
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
					par, err := translateConcurrently(tr, m, workers)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					sameObject(t, seq, par)
				}
			})
		}
	}
}
