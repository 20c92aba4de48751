package codegen_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"maps"
	"os"
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/image"
	"llva/internal/machine"
	"llva/internal/mem"
	"llva/internal/obj"
	"llva/internal/prof"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/telemetry"
	"llva/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/native_golden.json from the code the translator emits now")

const nativeGoldenPath = "testdata/native_golden.json"

// nativeGolden pins the translator's output on the workload suite: one
// SHA-256 over code bytes and relocations per function, keyed
// "tier/target/workload/function", and per tier the registry counters
// the translations added up to plus, per target, the instructions, the
// register moves and the callee-saved register saves emitted in total, so
// that a change to the code shows as a number and not only as changed
// hashes. Per workload it holds the
// rest of the paper's Table 2 that is exact: the module's LLVA
// instructions, object-code and static-data bytes, and the instructions
// and cycles one vx86 run retires at tier 1 and at tier 2. A change that
// means to leave the emitted code alone — a faster allocator, say — is
// held to this file; a change that means to move it bumps
// codegen.Revision (the file records the one it was written at, and is
// not rewritten with other code under the same one), regenerates the file
// with -update-golden and says so.
type nativeGolden struct {
	Revision  string                       `json:"revision"`
	Counters  map[string]map[string]uint64 `json:"counters"`
	Funcs     map[string]string            `json:"funcs"`
	Workloads map[string]map[string]uint64 `json:"workloads"`
}

// countCode adds obj's instructions and register moves to c under d's name.
func countCode(t *testing.T, c map[string]uint64, d *target.Desc, obj *codegen.NativeObject) {
	t.Helper()
	for _, nf := range obj.Funcs {
		c[d.Name+".instrs"] += uint64(nf.NumInstrs)
		for pos := 0; pos < len(nf.Code); {
			var in target.MInstr
			n, err := d.DecodeFrom(nf.Code, pos, &in)
			if err != nil {
				t.Fatalf("%s %s+%d: %v", d.Name, nf.Name, pos, err)
			}
			if in.Op == target.MMovRR {
				c[d.Name+".movs"]++
			}
			pos += n
		}
	}
}

func hashNative(nf *codegen.NativeFunc) string {
	h := sha256.New()
	var n [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(n[:], v)
		h.Write(n[:])
	}
	word(uint64(len(nf.Code)))
	h.Write(nf.Code)
	word(uint64(nf.NumInstrs))
	for _, r := range nf.Relocs {
		word(uint64(r.Offset)<<8 | uint64(r.Kind))
		word(uint64(len(r.Sym)))
		h.Write([]byte(r.Sym))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func counterValues(out map[string]uint64, reg *telemetry.Registry, names ...string) {
	for _, n := range names {
		out[n] = reg.CounterValue(n)
	}
}

// runSuite runs a suite module's code for d on a fresh machine, under
// the profiler p (nil: none), and returns what the machine counted.
func runSuite(t testing.TB, d *target.Desc, m *core.Module, obj *codegen.NativeObject, p *prof.Profiler) machine.ExecStats {
	t.Helper()
	var out bytes.Buffer
	mc, err := machine.New(d, m, rt.NewEnv(mem.New(0, true), &out))
	if err != nil {
		t.Fatal(err)
	}
	mc.SetProfiler(p)
	if err := mc.LoadObject(obj); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Run("main"); err != nil && !errors.Is(err, rt.ErrExit) {
		t.Fatal(err)
	}
	return mc.Stats
}

// suiteProfile runs a suite module's tier-1 code for d under the
// sampling profiler and returns the artifact tier 2 is guided by and
// what the run retired (the profiler does not perturb it).
func suiteProfile(t testing.TB, d *target.Desc, m *core.Module, obj *codegen.NativeObject) (*prof.Artifact, machine.ExecStats) {
	t.Helper()
	p := prof.NewProfiler(0)
	st := runSuite(t, d, m, obj, p)
	return p.Artifact(m.Name, d.Name), st
}

// moduleSizes returns a module's Table 2 columns that no translation
// moves: its LLVA instructions, object-code bytes and static-data bytes.
func moduleSizes(t *testing.T, m *core.Module) map[string]uint64 {
	t.Helper()
	enc, err := obj.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.Build(m, mem.NullGuard)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range m.Functions {
		n += f.NumInstructions()
	}
	return map[string]uint64{"llva.instrs": uint64(n), "llva.bytes": uint64(len(enc)), "data.bytes": uint64(len(img.Bytes))}
}

// diffCounts reports every count in got that differs from want's.
func diffCounts(t *testing.T, got, want map[string]map[string]uint64) {
	t.Helper()
	for group, counts := range got {
		for name, v := range counts {
			if w := want[group][name]; v != w {
				t.Errorf("%s %s = %d, golden %d", group, name, v, w)
			}
		}
	}
}

// TestNativeGolden translates the 17 workloads for both targets at tier
// 1 and, unless -short, for vx86 at tier 2 from a sampled profile, runs
// both vx86 translations, and compares every function, the spill
// counters and each workload's Table 2 counts with the recorded file.
func TestNativeGolden(t *testing.T) {
	got := nativeGolden{Revision: codegen.Revision, Funcs: map[string]string{},
		Counters:  map[string]map[string]uint64{"tier1": {}, "tier2": {}},
		Workloads: map[string]map[string]uint64{}}
	// translate translates w's module with tr, whose telemetry goes to reg, and
	// records the code under tier.
	translate := func(tier string, d *target.Desc, w *workloads.Workload, tr *codegen.Translator, reg *telemetry.Registry) *codegen.NativeObject {
		saves := reg.CounterValue(codegen.MetricSaves)
		obj, err := tr.TranslateModule()
		if err != nil {
			t.Fatal(err)
		}
		for _, nf := range obj.Funcs {
			got.Funcs[tier+"/"+d.Name+"/"+w.Name+"/"+nf.Name] = hashNative(nf)
		}
		countCode(t, got.Counters[tier], d, obj)
		got.Counters[tier][d.Name+".saves"] += reg.CounterValue(codegen.MetricSaves) - saves
		return obj
	}
	reg1, reg2 := telemetry.New(), telemetry.New()
	for _, w := range workloads.All() {
		m, err := w.CompileOptimized()
		if err != nil {
			t.Fatal(err)
		}
		table2 := moduleSizes(t, m)
		got.Workloads[w.Name] = table2
		for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
			tr, err := codegen.New(d, m)
			if err != nil {
				t.Fatal(err)
			}
			tr.SetTelemetry(reg1)
			obj := translate("tier1", d, w, tr, reg1)
			if d != target.VX86 || testing.Short() {
				continue
			}
			tr2, err := codegen.New(d, m)
			if err != nil {
				t.Fatal(err)
			}
			tr2.SetTelemetry(reg2)
			art, st1 := suiteProfile(t, d, m, obj)
			obj2 := translate("tier2", d, w, tr2.WithTier2(art), reg2)
			st2 := runSuite(t, d, m, obj2, nil)
			table2["vx86.t1.instrs"], table2["vx86.t1.cycles"] = st1.Instrs, st1.Cycles
			table2["vx86.t2.instrs"], table2["vx86.t2.cycles"] = st2.Instrs, st2.Cycles
		}
	}
	counterValues(got.Counters["tier1"], reg1, codegen.MetricSpills, codegen.MetricReloads)
	if testing.Short() {
		delete(got.Counters, "tier2")
	} else {
		counterValues(got.Counters["tier2"], reg2, codegen.MetricSpills, codegen.MetricReloads,
			codegen.MetricTier2Funcs, codegen.MetricSuperblocks, codegen.MetricTailDupInstrs)
	}

	var want nativeGolden
	b, err := os.ReadFile(nativeGoldenPath)
	if err == nil {
		err = json.Unmarshal(b, &want)
	}
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update-golden needs the tier-2 half: run without -short")
		}
		if err == nil && want.Revision == got.Revision && !maps.Equal(want.Funcs, got.Funcs) {
			t.Fatalf("the emitted code moved and codegen.Revision is still %q: bump it, or caches written before this change are hits", got.Revision)
		}
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(nativeGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if want.Revision != got.Revision {
		t.Errorf("codegen.Revision is %q, the golden file was written at %q", got.Revision, want.Revision)
	}
	diffCounts(t, got.Counters, want.Counters)
	diffCounts(t, got.Workloads, want.Workloads)
	bad := 0
	for key, h := range got.Funcs {
		if want.Funcs[key] != h {
			if bad++; bad <= 10 {
				t.Errorf("%s: code or relocations differ from golden", key)
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more functions", bad-10)
	}
	if !testing.Short() && len(got.Funcs) != len(want.Funcs) {
		t.Errorf("translated %d functions, golden holds %d", len(got.Funcs), len(want.Funcs))
	}
}

// TestBlockOrderSpills pins what the optimizer's block order is worth to
// tier-1 register allocation. Live intervals are measured in block order,
// so a loop InlineCall appended at the end of its caller spans every
// block laid out before it, and the linear scan spills what is live
// across the whole stretch: crafty's search reloaded popcount's operands
// on every iteration (10 spills, 18 reloads) and ks's klPass spilled 17
// and reloaded 38. TestNativeGolden holds the suite's totals exactly; this
// test names the two functions that moved most.
func TestBlockOrderSpills(t *testing.T) {
	for _, c := range []struct {
		workload, fn          string
		maxSpills, maxReloads uint64
	}{
		{"crafty", "search", 2, 4},
		{"ks", "klPass", 10, 12},
	} {
		m, err := workloads.ByName(c.workload).CompileOptimized()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := codegen.New(target.VX86, m)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		tr.SetTelemetry(reg)
		if _, err := tr.TranslateFunction(m.Function(c.fn)); err != nil {
			t.Fatal(err)
		}
		spills, reloads := reg.CounterValue(codegen.MetricSpills), reg.CounterValue(codegen.MetricReloads)
		if spills > c.maxSpills || reloads > c.maxReloads {
			t.Errorf("%s %%%s: tier-1 vx86 spills %d, reloads %d; at most %d/%d when passes.BlockOrder lays blocks out in reverse postorder",
				c.workload, c.fn, spills, reloads, c.maxSpills, c.maxReloads)
		}
	}
}
