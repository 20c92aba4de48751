package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/machine"
	"llva/internal/mem"
	"llva/internal/minic"
	"llva/internal/passes"
	"llva/internal/prof"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/telemetry"
	"llva/internal/workloads"
)

// expectedJSON holds the 17 suite outputs. They are the reference every
// op is checked against; expected_test.go holds them to the reference
// interpreter, never to a translator.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// profRate is the guest sampling period of every profile the benchmark
// collects: llva-bench's, so tier-2 code and its cycle counts compare
// with bench/BENCH_2026-08-07_tier2.json.
const profRate = 25

// sessionMem is the simulated address space of serve's and startup's
// sessions: llva-serve's default.
const sessionMem = 8 << 20

// shortPrograms are the four suite programs that run in a few
// milliseconds: startup's programs, the programs whose translations
// translate executes on every target and tier, and the test schedule.
var shortPrograms = []string{"gap", "yacr2", "vortex", "parser"}

// helloSource is the benchmark's own minimal program: start-up cost
// with next to no run time behind it.
const helloSource = `
int main() {
	print_int(42); print_nl();
	return 0;
}
`

// program is one MiniC input with its reference output.
type program struct {
	name   string
	source string
	want   string
}

// suitePrograms returns the named suite programs (nil: all 17, in
// Table 2 order) with their outputs from expected.json.
func suitePrograms(names []string) ([]program, error) {
	var want map[string]string
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	if names == nil {
		for _, w := range workloads.All() {
			names = append(names, w.Name)
		}
	}
	var out []program
	for _, n := range names {
		w := workloads.ByName(n)
		if w == nil || want[n] == "" {
			return nil, fmt.Errorf("no suite program or expected output named %q", n)
		}
		out = append(out, program{name: n, source: w.Source, want: want[n]})
	}
	return out, nil
}

// helloProgram returns the hello program; its reference output is
// computed here by the interpreter.
func helloProgram() (program, error) {
	p := program{name: "hello", source: helloSource}
	m, err := frontEnd(p, traceCtx{})
	if err != nil {
		return p, err
	}
	p.want, err = interpret(m)
	return p, err
}

// interpret runs main on the reference interpreter and returns its output.
func interpret(m *core.Module) (string, error) {
	var out bytes.Buffer
	ip, err := interp.New(m, &out)
	if err != nil {
		return "", err
	}
	if _, err := ip.RunMain(); err != nil {
		return "", err
	}
	return out.String(), nil
}

func countInstrs(m *core.Module) (n uint64) {
	for _, f := range m.Functions {
		n += uint64(f.NumInstructions())
	}
	return n
}

// frontEnd takes a program from MiniC source to a verified, optimized
// LLVA module: the first half of a translate op, and how every
// workload's set-up builds its modules.
func frontEnd(p program, tc traceCtx) (*core.Module, error) {
	s := tc.begin(spanCompile)
	m, err := minic.Compile(p.name+".c", p.source)
	tc.end(s)
	if err != nil {
		return nil, err
	}
	s = tc.begin(spanVerify)
	err = core.Verify(m)
	tc.end(s)
	if err != nil {
		return nil, err
	}
	if tc.on() {
		tc.add("passes.instrs_before", countInstrs(m))
	}
	s = tc.begin(spanOptimize)
	_, err = passes.Optimize(m)
	tc.end(s)
	if err != nil {
		return nil, err
	}
	if tc.on() {
		tc.add("passes.instrs_after", countInstrs(m))
	}
	return m, nil
}

// translateModule compiles every function of m for d: tier 1, or tier 2
// guided by art. reg receives the translator's counters.
func translateModule(d *target.Desc, m *core.Module, art *prof.Artifact, reg *telemetry.Registry, tc traceCtx, spanName string) (*codegen.NativeObject, error) {
	s := tc.begin(spanName)
	defer tc.end(s)
	tr, err := codegen.New(d, m)
	if err != nil {
		return nil, err
	}
	tr.SetTelemetry(reg)
	if art != nil {
		tr = tr.WithTier2(art)
	}
	return tr.TranslateModule()
}

// newMachine loads a translated object onto a fresh simulated processor.
func newMachine(d *target.Desc, m *core.Module, o *codegen.NativeObject, out *bytes.Buffer) (*machine.Machine, *rt.Env, error) {
	env := rt.NewEnv(mem.New(0, true), out)
	mc, err := machine.New(d, m, env)
	if err != nil {
		return nil, nil, err
	}
	if err := mc.LoadObject(o); err != nil {
		return nil, nil, err
	}
	return mc, env, nil
}

// runMain runs main to completion; exit() is an outcome, not a failure.
func runMain(mc *machine.Machine) (guest, error) {
	_, err := mc.Run("main")
	if err != nil && !errors.Is(err, rt.ErrExit) {
		return guest{}, err
	}
	return guest{mc.Stats.Instrs, mc.Stats.Cycles}, nil
}

// checkObject executes a translated object and holds its output to the
// program's reference. A non-nil profiler samples the run.
func checkObject(d *target.Desc, m *core.Module, o *codegen.NativeObject, p program, sampler *prof.Profiler) (guest, error) {
	var out bytes.Buffer
	mc, _, err := newMachine(d, m, o, &out)
	if err != nil {
		return guest{}, err
	}
	if sampler != nil {
		mc.SetProfiler(sampler)
	}
	g, err := runMain(mc)
	if err != nil {
		return g, fmt.Errorf("%s on %s: %w", p.name, d.Name, err)
	}
	if out.String() != p.want {
		return g, fmt.Errorf("%s on %s: output %q, want %q", p.name, d.Name, out.String(), p.want)
	}
	return g, nil
}

// profiled is one program built for vx86 with the profile that guides
// its tier 2.
type profiled struct {
	mod    *core.Module
	tier1  *codegen.NativeObject
	art    *prof.Artifact
	tier1G guest // what the profiling run retired
}

// parallel calls fn(i) for every i of order on the host's CPUs and
// joins the errors. Set-up uses it for the suite's profiling runs,
// which are long, independent, and retire the same whoever runs them.
func parallel(order []int, fn func(i int) error) error {
	errs := make([]error, len(order))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				errs[k] = fn(order[k])
			}
		}()
	}
	for k := range order {
		next <- k
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// profileAll builds every program for vx86 at tier 1 and runs it under
// the sampling profiler, checking its output on the way. The builds are
// serial: passes.Optimize keeps CSE keys in an unsynchronized
// package-level map, so two compiles must never overlap. The runs are
// independent and parallel.
func profileAll(progs []program, reg *telemetry.Registry) ([]profiled, error) {
	out := make([]profiled, len(progs))
	for i, p := range progs {
		m, err := frontEnd(p, traceCtx{})
		if err != nil {
			return nil, err
		}
		o, err := translateModule(target.VX86, m, nil, reg, traceCtx{}, "")
		if err != nil {
			return nil, err
		}
		out[i] = profiled{mod: m, tier1: o}
	}
	err := parallel(longestFirst(progs), func(i int) (err error) {
		pr := &out[i]
		sampler := prof.NewProfiler(profRate)
		pr.tier1G, err = checkObject(target.VX86, pr.mod, pr.tier1, progs[i], sampler)
		pr.art = sampler.Artifact(pr.mod.Name, target.VX86.Name)
		return err
	})
	return out, err
}

// longestFirst orders the programs for a parallel stage: crafty, half
// of the suite's run time on its own, ahead of the others, so the
// queue does not end on it.
func longestFirst(progs []program) []int {
	var first, rest []int
	for i, p := range progs {
		if p.name == "crafty" {
			first = append(first, i)
		} else {
			rest = append(rest, i)
		}
	}
	return append(first, rest...)
}
