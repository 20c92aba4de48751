package machine

import (
	"io"
	"slices"
	"strings"
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/mem"
	"llva/internal/minic"
	"llva/internal/prof"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/telemetry"
	"llva/internal/workloads"
)

// hotLoopSrc spends nearly all of its retired instructions inside %hot:
// the workload for sampling-attribution and perturbation tests.
const hotLoopSrc = `
int hot(int n) {
	int i, s = 0;
	for (i = 0; i < n; i++) s += i ^ (s >> 3);
	return s;
}
int main() {
	int j, t = 0;
	for (j = 0; j < 40; j++) t += hot(1500);
	print_int(t); print_nl();
	return 0;
}
`

func runHotLoop(t *testing.T, d *target.Desc, p *prof.Profiler) (ExecStats, string) {
	t.Helper()
	m, err := minic.Compile("hot.c", hotLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	mc, out := loadCompiled(t, m, d)
	if p != nil {
		mc.SetProfiler(p)
	}
	if _, err := mc.Run("main"); err != nil {
		t.Fatalf("%s: %v", d.Name, err)
	}
	return mc.Stats, out.String()
}

// TestProfilerDoesNotPerturbExecution: enabling the sampling profiler
// must leave the retired-instruction and cycle counts bit-identical —
// the trigger is derived from the instruction stream, never the wall
// clock, and sampling happens outside the simulated processor's
// accounting.
func TestProfilerDoesNotPerturbExecution(t *testing.T) {
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		base, baseOut := runHotLoop(t, d, nil)
		prof1, profOut := runHotLoop(t, d, prof.NewProfiler(128))
		if base.Instrs != prof1.Instrs || base.Cycles != prof1.Cycles {
			t.Errorf("%s: profiler perturbed execution: instrs %d->%d cycles %d->%d",
				d.Name, base.Instrs, prof1.Instrs, base.Cycles, prof1.Cycles)
		}
		if baseOut != profOut {
			t.Errorf("%s: output changed under profiling", d.Name)
		}
	}
}

// TestProfilerHotAttribution: on a loop-heavy workload, the known hot
// function must carry the lion's share of exclusive samples (the issue's
// >=90% acceptance bar) and appear under main in the folded stacks.
func TestProfilerHotAttribution(t *testing.T) {
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		p := prof.NewProfiler(128)
		stats, _ := runHotLoop(t, d, p)
		if p.Total() < 100 {
			t.Fatalf("%s: only %d samples over %d instrs (rate 128)",
				d.Name, p.Total(), stats.Instrs)
		}
		var hotExcl uint64
		for _, s := range p.Funcs() {
			if s.Name == "hot" {
				hotExcl = s.Excl
			}
		}
		if share := float64(hotExcl) / float64(p.Total()); share < 0.9 {
			t.Errorf("%s: hot carries %.1f%% of exclusive samples, want >=90%%",
				d.Name, 100*share)
		}
		var folded strings.Builder
		if err := p.WriteFolded(&folded); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(folded.String(), "main;hot ") {
			t.Errorf("%s: folded stacks missing main;hot:\n%s", d.Name, folded.String())
		}
	}
}

// TestBlockEntriesExact: with a profiler attached the machine counts
// every block entry and hands the counts over when the run ends, so the
// profile holds them exactly, whatever the sampling rate: hot's entry
// block is entered once per call, its loop body once per iteration, and
// the lazy stub main calls it through is no block of hot's. The counts
// are by LLVA block, and a block invalidation drops hands over what its
// blocks counted first.
func TestBlockEntriesExact(t *testing.T) {
	m, err := minic.Compile("hot.c", hotLoopSrc)
	if err != nil {
		t.Fatal(err)
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
		// main installed first calls hot through hot's lazy stub.
		callerFirst := &codegen.NativeObject{TargetName: obj.TargetName, Module: obj.Module}
		callerFirst.Add(obj.Func("main"))
		callerFirst.Add(obj.Func("hot"))
		run := func(p *prof.Profiler) (*Machine, *prof.Artifact) {
			mc, err := New(d, m, rt.NewEnv(mem.New(0, true), io.Discard))
			if err != nil {
				t.Fatal(err)
			}
			if err := mc.LoadObject(callerFirst); err != nil {
				t.Fatal(err)
			}
			mc.SetProfiler(p)
			if _, err := mc.Run("main"); err != nil {
				t.Fatal(err)
			}
			return mc, p.Artifact(m.Name, d.Name)
		}
		var arts []*prof.Artifact
		for _, rate := range []int{128, 1 << 40} {
			_, a := run(prof.NewProfiler(rate))
			arts = append(arts, a)
			hot := a.BlockCounts("hot")
			if len(hot) < 2 || hot[0].Block != 0 || hot[0].Count != 40 {
				t.Fatalf("%s rate %d: hot's blocks %v, want one entry block, entered 40 times", d.Name, rate, hot)
			}
			body := false
			for _, c := range hot {
				body = body || c.Count == 40*1500
			}
			if !body {
				t.Errorf("%s rate %d: no block of hot entered %d times: %v", d.Name, rate, 40*1500, hot)
			}
			if main := a.BlockCounts("main"); len(main) == 0 || main[0].Block != 0 || main[0].Count != 1 {
				t.Errorf("%s rate %d: main's blocks %v, want the entry block entered once", d.Name, rate, main)
			}
		}
		if !slices.Equal(arts[0].Blocks, arts[1].Blocks) {
			t.Errorf("%s: block entries depend on the sampling rate", d.Name)
		}

		// One more entry of the machine block at hot's entry point: one
		// more for each LLVA block that starts in it.
		p := prof.NewProfiler(0)
		mc, _ := run(p)
		var end uint64
		for _, r := range mc.funcCode {
			if r.name == "hot" {
				b := mc.blocks[r.lo]
				b.hits, end = 1, b.end-r.lo
			}
		}
		if err := mc.InvalidateFunction("hot"); err != nil {
			t.Fatal(err)
		}
		a := p.Artifact(m.Name, d.Name)
		for i, c := range a.BlockCounts("hot") {
			want := arts[0].BlockCounts("hot")[i].Count
			if obj.Func("hot").Blocks.Off(c.Block) < end {
				want++
			}
			if c.Count != want {
				t.Errorf("%s: after invalidation hot's block %v, want %d entries", d.Name, c, want)
			}
		}
		if !slices.Equal(a.BlockCounts("main"), arts[0].BlockCounts("main")) {
			t.Errorf("%s: invalidating hot handed over main's entries", d.Name)
		}
	}
}

// TestTrapErrorMnemonic: an unhandled trap surfaces the faulting
// instruction's mnemonic in both the error struct and its message.
func TestTrapErrorMnemonic(t *testing.T) {
	src := `
long %f(long* %p) {
entry:
    %v = load long* %p
    ret long %v
}
`
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		mc, _ := loadProgram(t, src, d)
		_, err := mc.Run("f", 0)
		te, ok := err.(*TrapError)
		if !ok || te.Num != TrapMemoryFault {
			t.Fatalf("%s: err = %v, want memory fault", d.Name, err)
		}
		if te.Mnemonic == "" {
			t.Fatalf("%s: trap carries no mnemonic", d.Name)
		}
		if !strings.Contains(te.Error(), te.Mnemonic) {
			t.Errorf("%s: message %q does not include mnemonic %q",
				d.Name, te.Error(), te.Mnemonic)
		}
	}
}

// TestFlightRecorderCrashReport: a trap with the flight recorder armed
// yields a post-mortem with the faulting function, a caller->callee
// backtrace, registers, a disassembly window marking the fault, and the
// telemetry event tail ending in the trap itself.
func TestFlightRecorderCrashReport(t *testing.T) {
	src := `
long %inner(long* %p) {
entry:
    %v = load long* %p
    ret long %v
}
long %outer(long* %p) {
entry:
    %r = call long %inner(long* %p)
    ret long %r
}
`
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		mc, _ := loadProgram(t, src, d)
		mc.SetTelemetry(telemetry.New())
		mc.EnableFlightRecorder(8)
		if mc.LastCrash() != nil {
			t.Fatalf("%s: crash report before any run", d.Name)
		}
		_, err := mc.Run("outer", 0)
		if _, ok := err.(*TrapError); !ok {
			t.Fatalf("%s: err = %v, want trap", d.Name, err)
		}
		c := mc.LastCrash()
		if c == nil {
			t.Fatalf("%s: no crash report after trap", d.Name)
		}
		if c.Func != "inner" {
			t.Errorf("%s: faulting func = %q, want inner", d.Name, c.Func)
		}
		if len(c.Backtrace) != 2 || c.Backtrace[0].Func != "outer" || c.Backtrace[1].Func != "inner" {
			t.Errorf("%s: backtrace = %+v, want outer -> inner", d.Name, c.Backtrace)
		}
		if len(c.Regs) == 0 {
			t.Errorf("%s: no registers captured", d.Name)
		}
		fault := false
		for _, l := range c.Disasm {
			if l.Fault && l.PC == c.PC {
				fault = true
			}
		}
		if !fault {
			t.Errorf("%s: disassembly window does not mark the faulting PC", d.Name)
		}
		gotTrapEv := false
		for _, e := range c.Events {
			if e.Kind == telemetry.EvTrapTaken {
				gotTrapEv = true
			}
		}
		if !gotTrapEv {
			t.Errorf("%s: event tail misses the trap event: %+v", d.Name, c.Events)
		}
		var b strings.Builder
		if err := c.Render(&b); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"%inner", "faulted in", "=> ", "registers"} {
			if !strings.Contains(b.String(), want) {
				t.Errorf("%s: rendered report missing %q:\n%s", d.Name, want, b.String())
			}
		}
	}
}

// loadCompiled is loadProgram for an already-compiled module.
func loadCompiled(t *testing.T, m *core.Module, d *target.Desc) (*Machine, *strings.Builder) {
	t.Helper()
	tr, err := codegen.New(d, m)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tr.TranslateModule()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	env := rt.NewEnv(mem.New(0, true), &out)
	mc, err := New(d, m, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.LoadObject(obj); err != nil {
		t.Fatal(err)
	}
	return mc, &out
}

// TestCensusMatchesCycles: the profiler's census is exact. On every
// workload at O2, on both targets at tier 1, the census's cycles (its
// taken-branch row included) are Stats.Cycles and its instructions
// Stats.Instrs. With -v it prints each target's census over the suite.
func TestCensusMatchesCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload suite")
	}
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		suite := prof.NewProfiler(0)
		for _, w := range workloads.All() {
			m, err := w.CompileOptimized()
			if err != nil {
				t.Fatal(err)
			}
			mc, _ := loadCompiled(t, m, d)
			p := prof.NewProfiler(0)
			mc.SetProfiler(p)
			if _, err := mc.Run("main"); err != nil {
				t.Fatalf("%s on %s: %v", w.Name, d.Name, err)
			}
			var instrs, cycles, taken uint64
			for _, r := range p.Census() {
				instrs += r.Instrs
				cycles += r.Cycles
				if r.Op == prof.TakenBranch {
					taken = r.Cycles
				}
				suite.AddCensus(r.Op, r.Instrs, r.Cycles)
			}
			if cycles != mc.Stats.Cycles || instrs != mc.Stats.Instrs || taken != mc.Stats.BranchesTaken {
				t.Errorf("%s on %s: census %d cycles, %d instrs, %d taken branches; the machine %d, %d, %d",
					w.Name, d.Name, cycles, instrs, taken, mc.Stats.Cycles, mc.Stats.Instrs, mc.Stats.BranchesTaken)
			}
		}
		if testing.Verbose() {
			var b strings.Builder
			_ = suite.WriteCensus(&b)
			t.Logf("%s tier 1, the suite at O2:\n%s", d.Name, b.String())
		}
	}
}
