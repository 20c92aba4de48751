package llee

import (
	"io"
	"testing"

	"llva/internal/core"
	"llva/internal/minic"
	"llva/internal/target"
	"llva/internal/workloads"
)

func benchModule(b *testing.B, src string) *core.Module {
	b.Helper()
	m, err := minic.Compile("bench.c", src)
	if err != nil {
		b.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkNewSession measures steady-state session creation on a warm
// System: the module is translated once, then every further NewSession
// reuses the cached native code and the prebuilt image prototype. The
// allocs/op column is the zero-alloc-steady-state contract — after the
// first session the remaining allocations are the Session/Machine
// structs and the cloned image bytes (the machine address space is a
// mapping, not an allocation: mem.New); no re-translation, no
// re-encoding, no eager tracing state.
func BenchmarkNewSession(b *testing.B) {
	m := benchModule(b, testProg)
	sys := NewSystem()
	defer sys.Close()
	// Warm the shared translation and image prototype.
	if _, err := sys.NewSession(m, target.VX86, io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.NewSession(m, target.VX86, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewSessionLarge is the same measurement over a realistic
// multi-function workload, where the per-install copies and per-session
// image re-encoding eliminated in this change used to dominate.
func BenchmarkNewSessionLarge(b *testing.B) {
	w := workloads.ByName("bc")
	m, err := w.CompileOptimized()
	if err != nil {
		b.Fatal(err)
	}
	sys := NewSystem()
	defer sys.Close()
	if _, err := sys.NewSession(m, target.VX86, io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.NewSession(m, target.VX86, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
