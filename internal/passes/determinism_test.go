package passes_test

import (
	"crypto/sha256"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"testing"

	"llva/internal/obj"
	"llva/internal/passes"
	"llva/internal/workloads"
)

func optimizedStamp(t *testing.T, w *workloads.Workload) [sha256.Size]byte {
	t.Helper()
	m, err := w.CompileOptimized()
	if err != nil {
		t.Error(err)
		return [sha256.Size]byte{}
	}
	b, err := obj.Encode(m)
	if err != nil {
		t.Errorf("%s: encode: %v", w.Name, err)
	}
	return sha256.Sum256(b)
}

// TestOptimizeDeterministicStamp holds the optimizer to one bytecode per
// source: llva-run's cache is keyed by the module stamp, so a pass whose
// output follows map iteration order turns every recompile into a miss
// (LICM once hoisted in the order of a map-built loop body).
func TestOptimizeDeterministicStamp(t *testing.T) {
	for _, w := range workloads.All() {
		want := optimizedStamp(t, w)
		for i := 1; i < 10; i++ {
			if got := optimizedStamp(t, w); got != want {
				t.Errorf("%s: compile %d encodes to %x, compile 0 to %x", w.Name, i, got[:6], want[:6])
				break
			}
		}
	}
}

// TestOptimizeConcurrent optimizes distinct modules from several
// goroutines at once (llva-serve does, on overlapping /api/v1/load
// requests) and holds each result to the stamp a lone compile gives.
// Run under -race: CSE once numbered values in a package-level map.
func TestOptimizeConcurrent(t *testing.T) {
	ws := workloads.All()
	want := make([][sha256.Size]byte, len(ws))
	for i, w := range ws {
		want[i] = optimizedStamp(t, w)
	}
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *workloads.Workload) {
			defer wg.Done()
			if got := optimizedStamp(t, w); got != want[i] {
				t.Errorf("%s: concurrent compile encodes to %x, lone compile to %x", w.Name, got[:6], want[i][:6])
			}
		}(i, w)
	}
	wg.Wait()
}

// TestO2KeepsNumbering runs the verifier, which checks that every block
// and instruction holds a number unique in its function and below its
// slot count, after every O2 pass on every suite program: the passes
// index their tables by those numbers. After the last pass, BlockOrder,
// the numbers are dense: a table is exactly as long as the function.
func TestO2KeepsNumbering(t *testing.T) {
	for _, w := range workloads.All() {
		m, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		pipe := passes.O2()
		pipe.Verify = true
		if _, err := pipe.Run(m, passes.NewStats()); err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		for _, f := range m.Functions {
			if f.BlockSlots() != len(f.Blocks) || f.InstrSlots() != f.NumInstructions() {
				t.Errorf("%s: %%%s has %d and %d slots for %d blocks and %d instructions",
					w.Name, f.Name(), f.BlockSlots(), f.InstrSlots(), len(f.Blocks), f.NumInstructions())
			}
		}
	}
}

// TestNoPackageLevelState keeps the optimizer free of package-level
// variables: passes run concurrently on different modules, and anything
// a pass remembers between calls is both a race and a leak.
func TestNoPackageLevelState(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, spec := range gd.Specs {
						t.Errorf("%s: package-level var %s", name, spec.(*ast.ValueSpec).Names[0])
					}
				}
			}
		}
	}
}
