// Package llva's top-level benchmark harness regenerates every
// experiment in DESIGN.md's per-experiment index (the paper's Table 2
// columns E1-E5, the qualitative optimization experiment E6, the
// execution-manager experiment E7, and the ablations A1-A3; E8 is held
// by tests in internal/llee).
//
// The complete Table 2 (all 17 workloads, all 11 columns) is printed by
// cmd/llva-bench; these benchmarks time the underlying operations and
// report the paper's metrics via b.ReportMetric, over a representative
// subset where a full sweep would be slow.
package llva

import (
	"context"
	"errors"
	"fmt"
	"io"

	"llva/internal/asm"
	"strings"
	"sync"
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/llee"
	"llva/internal/llee/pipeline"
	"llva/internal/machine"
	"llva/internal/mem"
	"llva/internal/obj"
	"llva/internal/passes"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/workloads"
)

// benchSet is the representative subset used by the execution-time
// benchmarks (the full sweep lives in cmd/llva-bench).
var benchSet = []string{"anagram", "ft", "bc", "bzip2", "gzip", "parser", "equake", "gap"}

var (
	moduleCacheMu sync.Mutex
	moduleCache   = map[string]*core.Module{}
)

// compiled returns a cached optimized module for a workload. Benchmarks
// must not mutate it; those that do (codegen is read-only; passes are
// not) compile fresh.
func compiled(b *testing.B, name string) *core.Module {
	b.Helper()
	moduleCacheMu.Lock()
	defer moduleCacheMu.Unlock()
	if m, ok := moduleCache[name]; ok {
		return m
	}
	w := workloads.ByName(name)
	if w == nil {
		b.Fatalf("unknown workload %s", name)
	}
	m, err := w.CompileOptimized()
	if err != nil {
		b.Fatal(err)
	}
	moduleCache[name] = m
	return m
}

func translate(b *testing.B, m *core.Module, d *target.Desc) *codegen.NativeObject {
	b.Helper()
	tr, err := codegen.New(d, m)
	if err != nil {
		b.Fatal(err)
	}
	o, err := tr.TranslateModule()
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkTable2CodeSize (E1): virtual object code vs native code size.
func BenchmarkTable2CodeSize(b *testing.B) {
	for _, name := range benchSet {
		b.Run(name, func(b *testing.B) {
			m := compiled(b, name)
			var encLen, natLen int
			for i := 0; i < b.N; i++ {
				enc, err := obj.Encode(m)
				if err != nil {
					b.Fatal(err)
				}
				encLen = len(enc)
				natLen = translate(b, m, target.VSPARC).CodeSize()
			}
			b.ReportMetric(float64(encLen), "llva-bytes")
			b.ReportMetric(float64(natLen), "native-bytes")
			b.ReportMetric(float64(natLen)/float64(encLen), "native/llva")
		})
	}
}

// BenchmarkTable2X86Expansion (E2) and BenchmarkTable2SparcExpansion (E3):
// LLVA -> native instruction expansion ratios.
func expansion(b *testing.B, d *target.Desc) {
	for _, name := range benchSet {
		b.Run(name, func(b *testing.B) {
			m := compiled(b, name)
			var nLLVA, nNative int
			for i := 0; i < b.N; i++ {
				o := translate(b, m, d)
				nNative = o.NumInstrs()
				nLLVA = 0
				for _, f := range o.Funcs {
					nLLVA += f.NumLLVA
				}
			}
			b.ReportMetric(float64(nLLVA), "llva-instrs")
			b.ReportMetric(float64(nNative), "native-instrs")
			b.ReportMetric(float64(nNative)/float64(nLLVA), "expansion")
		})
	}
}

func BenchmarkTable2X86Expansion(b *testing.B)   { expansion(b, target.VX86) }
func BenchmarkTable2SparcExpansion(b *testing.B) { expansion(b, target.VSPARC) }

// BenchmarkTable2TranslateTime (E4): whole-program JIT compile time (the
// paper's column 10, "total code generation time taken by the X86 JIT to
// compile the entire program").
func BenchmarkTable2TranslateTime(b *testing.B) {
	for _, name := range benchSet {
		b.Run(name, func(b *testing.B) {
			m := compiled(b, name)
			tr, err := codegen.New(target.VX86, m)
			if err != nil {
				b.Fatal(err)
			}
			nLLVA := 0
			for _, f := range m.Functions {
				nLLVA += f.NumInstructions()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.TranslateModule(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nLLVA)/(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e9),
				"llva-instrs/s")
		})
	}
}

// BenchmarkTable2RunTime (E5): native execution on the simulated
// processor (cycles and instructions reported per run).
func BenchmarkTable2RunTime(b *testing.B) {
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		b.Run(d.Name, func(b *testing.B) {
			for _, name := range benchSet {
				b.Run(name, func(b *testing.B) {
					m := compiled(b, name)
					o := translate(b, m, d)
					var cycles, instrs uint64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						env := rt.NewEnv(mem.New(0, true), io.Discard)
						mc, err := machine.New(d, m, env)
						if err != nil {
							b.Fatal(err)
						}
						if err := mc.LoadObject(o); err != nil {
							b.Fatal(err)
						}
						if _, err := mc.Run("main"); err != nil {
							if _, isExit := err.(*rt.ExitError); !isExit {
								b.Fatal(err)
							}
						}
						cycles, instrs = mc.Stats.Cycles, mc.Stats.Instrs
					}
					b.ReportMetric(float64(cycles), "cycles")
					b.ReportMetric(float64(instrs), "native-instrs")
					// Retired-instruction throughput of the simulated
					// processor: the block engine's headline number.
					if s := b.Elapsed().Seconds(); s > 0 {
						b.ReportMetric(float64(instrs)*float64(b.N)/s, "instrs/s")
					}
				})
			}
		})
	}
}

// BenchmarkInterpreterRunTime: the reference interpreter baseline for E5.
func BenchmarkInterpreterRunTime(b *testing.B) {
	for _, name := range benchSet {
		b.Run(name, func(b *testing.B) {
			m := compiled(b, name)
			var steps uint64
			for i := 0; i < b.N; i++ {
				ip, err := interp.New(m, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ip.RunMain(); err != nil {
					b.Fatal(err)
				}
				steps = ip.Stats.Instructions
			}
			b.ReportMetric(float64(steps), "llva-instrs")
		})
	}
}

// BenchmarkOptPipeline (E6): the link-time O2 pipeline — time, and how
// much it shrinks the program (Section 5.1's qualitative claim made
// quantitative).
func BenchmarkOptPipeline(b *testing.B) {
	for _, name := range benchSet {
		b.Run(name, func(b *testing.B) {
			w := workloads.ByName(name)
			var before, after int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := w.Compile()
				if err != nil {
					b.Fatal(err)
				}
				before = 0
				for _, f := range m.Functions {
					before += f.NumInstructions()
				}
				b.StartTimer()
				if _, err := passes.Optimize(m); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				after = 0
				for _, f := range m.Functions {
					after += f.NumInstructions()
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(before), "instrs-before")
			b.ReportMetric(float64(after), "instrs-after")
			b.ReportMetric(float64(after)/float64(before), "shrink")
		})
	}
}

// BenchmarkLLEEColdVsWarm (E7): startup translation cost with and without
// a valid cached translation (the offline-caching claim of Section 4.1).
func BenchmarkLLEEColdVsWarm(b *testing.B) {
	m := compiled(b, "bc")
	b.Run("cold", func(b *testing.B) {
		var transNS int64
		for i := 0; i < b.N; i++ {
			sys := llee.NewSystem()
			sess, err := sys.NewSession(m, target.VX86, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Run(context.Background(), "main"); err != nil {
				b.Fatal(err)
			}
			tele := sys.Telemetry()
			if tele.CounterValue(llee.MetricTranslations) == 0 {
				b.Fatal("cold run did not translate")
			}
			transNS = tele.Histogram(llee.MetricTranslateNS).Sum()
		}
		b.ReportMetric(float64(transNS), "translate-ns")
	})
	b.Run("warm", func(b *testing.B) {
		st := llee.NewMemStorage()
		seedSys := llee.NewSystem(llee.WithStorage(st))
		seed, err := seedSys.NewSession(m, target.VX86, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if err := seed.TranslateOffline(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys := llee.NewSystem(llee.WithStorage(st))
			sess, err := sys.NewSession(m, target.VX86, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Run(context.Background(), "main"); err != nil {
				b.Fatal(err)
			}
			if !sess.CacheHit() {
				b.Fatal("warm run missed the cache")
			}
		}
		b.ReportMetric(0, "translate-ns")
	})
}

// BenchmarkAblationExceptions (A1): how much optimization latitude the
// ExceptionsEnabled attribute grants — DCE over a module with the paper's
// defaults vs. the same module with every instruction's exceptions
// enabled (the conservative "always precise" world of conventional ISAs).
func BenchmarkAblationExceptions(b *testing.B) {
	const n = 400
	build := func(allEnabled bool) *core.Module {
		m := core.NewModule("ablate")
		ctx := m.Types()
		long := ctx.Long()
		f := m.NewFunction("f", ctx.Function(long, []*core.Type{long, long}, false))
		bb := f.NewBlock("entry")
		bld := core.NewBuilder(f)
		bld.SetBlock(bb)
		x, y := f.Params[0], f.Params[1]
		var last core.Value = x
		for i := 0; i < n; i++ {
			// dead divisions: results never used
			d := bld.Div(x, y, "")
			if allEnabled {
				d.ExceptionsEnabled = true
			} else {
				d.ExceptionsEnabled = false // paper default is true for div; the
				// front-end knows these cannot trap and clears the bit
			}
			_ = d
			last = bld.Add(last, x, "")
		}
		bld.Ret(last)
		return m
	}
	for _, mode := range []string{"attr-off", "attr-on"} {
		b.Run(mode, func(b *testing.B) {
			var removed int
			for i := 0; i < b.N; i++ {
				m := build(mode == "attr-on")
				s := passes.NewStats()
				passes.DCE(m, s)
				removed = s.Counts["dce.removed"]
			}
			b.ReportMetric(float64(removed), "dead-divs-removed")
		})
	}
}

// BenchmarkAblationSMC (A2): cost of an llva.smc.replace invalidation +
// retranslation cycle on the simulated processor.
func BenchmarkAblationSMC(b *testing.B) {
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
	m := mustParse(b, src)
	for i := 0; i < b.N; i++ {
		sys := llee.NewSystem()
		sess, err := sys.NewSession(m, target.VX86, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sess.Run(context.Background(), "main")
		if err != nil {
			b.Fatal(err)
		}
		if int32(res.Value) != 3 {
			b.Fatalf("SMC result %d, want 3", int32(res.Value))
		}
	}
}

// BenchmarkAblationPipelines (A3): expansion ratio of naive front-end
// output vs. O2-optimized code — quantifying how much optimization the
// rich representation moves OUT of the translator (Section 4.2's "minimize
// optimization that must be performed online").
func BenchmarkAblationPipelines(b *testing.B) {
	for _, mode := range []string{"O0", "O2"} {
		b.Run(mode, func(b *testing.B) {
			w := workloads.ByName("bc")
			var nLLVA, nNative int
			for i := 0; i < b.N; i++ {
				var m *core.Module
				var err error
				if mode == "O2" {
					m, err = w.CompileOptimized()
				} else {
					m, err = w.Compile()
				}
				if err != nil {
					b.Fatal(err)
				}
				o := translate(b, m, target.VX86)
				nNative = o.NumInstrs()
				nLLVA = 0
				for _, f := range o.Funcs {
					nLLVA += f.NumLLVA
				}
			}
			b.ReportMetric(float64(nLLVA), "llva-instrs")
			b.ReportMetric(float64(nNative), "native-instrs")
		})
	}
}

// BenchmarkPoolAllocation (E9): DSA + automatic pool allocation on the
// pointer-heavy ft workload — transformation cost, pools identified, and
// run-time pool traffic.
func BenchmarkPoolAllocation(b *testing.B) {
	w := workloads.ByName("ft")
	var pools, rewritten int
	for i := 0; i < b.N; i++ {
		m, err := w.CompileOptimized()
		if err != nil {
			b.Fatal(err)
		}
		s := passes.NewStats()
		passes.PoolAllocate(m, s)
		pools = s.Counts["poolalloc.pools"]
		rewritten = s.Counts["poolalloc.allocs"]
		if err := core.Verify(m); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// One execution to confirm pool traffic flows.
			ip, err := interp.New(m, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ip.RunMain(); err != nil {
				b.Fatal(err)
			}
			if len(ip.Env().Stats.PoolAllocs) == 0 {
				b.Fatal("no pool allocations at run time")
			}
		}
	}
	b.ReportMetric(float64(pools), "pools")
	b.ReportMetric(float64(rewritten), "sites-rewritten")
}

// BenchmarkParallelTranslate (P1): whole-module translation on the
// worker-pool pipeline at increasing widths, against the serial
// baseline (workers=1). The output is byte-identical at every width;
// only the wall clock changes.
func BenchmarkParallelTranslate(b *testing.B) {
	for _, name := range []string{"bc", "gzip", "gap"} {
		b.Run(name, func(b *testing.B) {
			m := compiled(b, name)
			tr, err := codegen.New(target.VX86, m)
			if err != nil {
				b.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := pipeline.TranslateModule(m, target.VX86, tr.TranslateFunction, workers, nil); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkSpeculativeColdStart (P2): a cold LLEE run of every suite
// program on vx86, with background speculative JIT of static callees and
// strictly on demand. ns/op is the whole cold start (NewSystem to Close);
// demand-stall-ns is the translation time the program actually waited for
// on the demand path (near zero where speculation ran ahead), spec-hits
// the demands that found a speculative translation ready and spec-waste
// the speculative translations nothing demanded. Which goroutine translates
// a function must not change what runs: the two modes retire the same
// cycles, or the benchmark fails. EXPERIMENTS.md, "What speculation buys
// on the suite", is this at -benchtime 11x.
func BenchmarkSpeculativeColdStart(b *testing.B) {
	for _, w := range workloads.All() {
		m := compiled(b, w.Name)
		var cycles uint64 // of the first cold run; every other must match
		for _, mode := range []struct {
			name string
			on   bool
		}{{"speculate", true}, {"on-demand", false}} {
			b.Run(w.Name+"/"+mode.name, func(b *testing.B) {
				var stall int64
				var translated, hits, waste uint64
				for i := 0; i < b.N; i++ {
					sys := llee.NewSystem(llee.WithSpeculation(mode.on))
					sess, err := sys.NewSession(m, target.VX86, io.Discard)
					if err != nil {
						b.Fatal(err)
					}
					res, err := sess.Run(context.Background(), "main")
					if err != nil && !errors.Is(err, llee.ErrExit) {
						b.Fatal(err)
					}
					if cycles == 0 {
						cycles = res.Cycles
					} else if res.Cycles != cycles {
						b.Fatalf("%d cycles, another cold run of the same program retired %d", res.Cycles, cycles)
					}
					if err := sys.Close(); err != nil {
						b.Fatal(err)
					}
					tele := sys.Telemetry()
					stall += tele.Histogram(llee.MetricTranslateNS).Sum()
					translated += tele.CounterValue(llee.MetricTranslations) + tele.CounterValue(pipeline.MetricSpecTranslated)
					hits += tele.CounterValue(pipeline.MetricSpecHits)
					waste += tele.CounterValue(pipeline.MetricSpecWaste)
				}
				if translated == 0 {
					b.Fatal("cold run did not translate")
				}
				n := float64(b.N)
				b.ReportMetric(float64(stall)/n, "demand-stall-ns")
				b.ReportMetric(float64(translated)/n, "translations")
				b.ReportMetric(float64(hits)/n, "spec-hits")
				b.ReportMetric(float64(waste)/n, "spec-waste")
			})
		}
	}
}

// BenchmarkObjEncodeDecode: the virtual-object-code round trip itself.
func BenchmarkObjEncodeDecode(b *testing.B) {
	m := compiled(b, "gap")
	enc, err := obj.Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := obj.Encode(m); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(enc)))
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := obj.Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(enc)))
	})
}

func mustParse(b *testing.B, src string) *core.Module {
	b.Helper()
	m, err := asm.Parse("bench", src)
	if err != nil {
		b.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		b.Fatal(err)
	}
	return m
}

var _ = strings.TrimSpace
