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
	"llva/internal/machine"
	"llva/internal/mem"
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
// the translations added up to plus, per target, the instructions and
// the register moves emitted in total, so that a change to the code shows
// as a number and not only as changed hashes. A change that means to
// leave the emitted code alone — a faster allocator, say — is held to
// this file; a change that means to move it bumps codegen.Revision (the
// file records the one it was written at, and is not rewritten with
// other code under the same one), regenerates the file with
// -update-golden and says so.
type nativeGolden struct {
	Revision string                       `json:"revision"`
	Counters map[string]map[string]uint64 `json:"counters"`
	Funcs    map[string]string            `json:"funcs"`
}

// countCode adds obj's instructions and register moves to c under d's name.
func countCode(t *testing.T, c map[string]uint64, d *target.Desc, obj *codegen.NativeObject) {
	t.Helper()
	for _, nf := range obj.Funcs {
		c[d.Name+".instrs"] += uint64(nf.NumInstrs)
		for pos := 0; pos < len(nf.Code); {
			in, n, err := d.DecodeFrom(nf.Code, pos)
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

// suiteProfile runs a suite module's tier-1 code for d under the
// sampling profiler and returns the artifact tier 2 is guided by.
func suiteProfile(t testing.TB, d *target.Desc, m *core.Module, obj *codegen.NativeObject) *prof.Artifact {
	t.Helper()
	var out bytes.Buffer
	mc, err := machine.New(d, m, rt.NewEnv(mem.New(0, true), &out))
	if err != nil {
		t.Fatal(err)
	}
	p := prof.NewProfiler(0)
	mc.SetProfiler(p)
	if err := mc.LoadObject(obj); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Run("main"); err != nil && !errors.Is(err, rt.ErrExit) {
		t.Fatal(err)
	}
	return p.Artifact(m.Name, d.Name)
}

// TestNativeGolden translates the 17 workloads for both targets at tier
// 1 and, unless -short, for vx86 at tier 2 from a sampled profile, and
// compares every function and the spill counters with the recorded file.
func TestNativeGolden(t *testing.T) {
	got := nativeGolden{Revision: codegen.Revision, Funcs: map[string]string{},
		Counters: map[string]map[string]uint64{"tier1": {}, "tier2": {}}}
	record := func(tier string, d *target.Desc, w *workloads.Workload, obj *codegen.NativeObject) {
		for _, nf := range obj.Funcs {
			got.Funcs[tier+"/"+d.Name+"/"+w.Name+"/"+nf.Name] = hashNative(nf)
		}
		countCode(t, got.Counters[tier], d, obj)
	}
	reg1, reg2 := telemetry.New(), telemetry.New()
	for _, w := range workloads.All() {
		m, err := w.CompileOptimized()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
			tr, err := codegen.New(d, m)
			if err != nil {
				t.Fatal(err)
			}
			tr.SetTelemetry(reg1)
			obj, err := tr.TranslateModule()
			if err != nil {
				t.Fatal(err)
			}
			record("tier1", d, w, obj)
			if d != target.VX86 || testing.Short() {
				continue
			}
			tr2, err := codegen.New(d, m)
			if err != nil {
				t.Fatal(err)
			}
			tr2.SetTelemetry(reg2)
			obj2, err := tr2.WithTier2(suiteProfile(t, d, m, obj)).TranslateModule()
			if err != nil {
				t.Fatal(err)
			}
			record("tier2", d, w, obj2)
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
	for tier, counters := range got.Counters {
		for name, v := range counters {
			if w := want.Counters[tier][name]; v != w {
				t.Errorf("%s %s = %d, golden %d", tier, name, v, w)
			}
		}
	}
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
