package codegen_test

import (
	"bytes"
	"testing"

	"llva/internal/asm"
	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/machine"
	"llva/internal/mem"
	"llva/internal/prof"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// tier2Src is a branchy hot loop with a small out-of-line callee: the
// shape tier 2 exists for. The loop's taken-branch path and the call are
// both hot; tier-1 code pays a taken branch per iteration plus call/ret
// overhead, which superblock layout and hot inlining remove.
const tier2Src = `
long %sq(long %x) {
entry:
    %a = mul long %x, %x
    %b = add long %a, 1
    ret long %b
}

long %f(long %n, long %unused) {
entry:
    br label %loop
loop:
    %i0 = phi long [ 0, %entry ], [ %i1, %latch ]
    %s0 = phi long [ 0, %entry ], [ %s1, %latch ]
    %r = rem long %i0, 3 !noexc
    %z = seteq long %r, 0
    br bool %z, label %skip, label %hot
hot:
    %q = call long %sq(long %i0)
    %t = add long %s0, %q
    br label %latch
skip:
    br label %latch
latch:
    %s1 = phi long [ %t, %hot ], [ %s0, %skip ]
    %i1 = add long %i0, 1
    %c = setlt long %i1, %n
    br bool %c, label %loop, label %done
done:
    ret long %s1
}
`

func runTier2Obj(t *testing.T, d *target.Desc, m *core.Module, obj *codegen.NativeObject,
	p *prof.Profiler, args ...uint64) (uint64, uint64, string) {
	t.Helper()
	var out bytes.Buffer
	env := rt.NewEnv(mem.New(0, true), &out)
	mc, err := machine.New(d, m, env)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		mc.SetProfiler(p)
	}
	if err := mc.LoadObject(obj); err != nil {
		t.Fatal(err)
	}
	got, err := mc.Run("f", args...)
	if err != nil {
		t.Fatal(err)
	}
	return got, mc.Stats.Cycles, out.String()
}

// TestTier2SuperblockSpeedup checks the whole tier-2 loop on both
// targets: profile a tier-1 run, re-translate at tier 2, and require (a)
// identical result and output, (b) strictly fewer simulated cycles, and
// (c) the transformation telemetry to show superblocks formed and the
// hot callee inlined.
func TestTier2SuperblockSpeedup(t *testing.T) {
	m, err := asm.Parse("t2", tier2Src)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		t.Run(d.Name, func(t *testing.T) {
			tr, err := codegen.New(d, m)
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.New()
			tr.SetTelemetry(reg)
			obj1, err := tr.TranslateModule()
			if err != nil {
				t.Fatal(err)
			}
			p := prof.NewProfiler(25)
			want, cycles1, wantOut := runTier2Obj(t, d, m, obj1, p, n, 0)

			tr2 := tr.WithTier2(p.Artifact(m.Name, d.Name))
			obj2, err := tr2.TranslateModule()
			if err != nil {
				t.Fatal(err)
			}
			got, cycles2, out := runTier2Obj(t, d, m, obj2, nil, n, 0)
			if got != want || out != wantOut {
				t.Fatalf("tier2 differs: got %#x want %#x (out %q vs %q)", got, want, out, wantOut)
			}
			if cycles2 >= cycles1 {
				t.Errorf("tier2 not faster: %d cycles vs tier1 %d", cycles2, cycles1)
			}
			if v := reg.CounterValue(codegen.MetricTier2Funcs); v == 0 {
				t.Errorf("no functions took the tier-2 path")
			}
			if v := reg.CounterValue(codegen.MetricSuperblocks); v == 0 {
				t.Errorf("no superblocks formed")
			}
			// %sq is hot, tiny and exception-free: it must be inlined, so
			// tier-2 %f no longer calls it. (Its size says nothing: with the
			// copies coalesced the inlined body is shorter than the call
			// sequence it replaces.)
			f1, f2 := obj1.Func("f"), obj2.Func("f")
			calls := func(nf *codegen.NativeFunc) (n int) {
				for _, r := range nf.Relocs {
					if r.Kind == target.RelocCall && r.Sym == "sq" {
						n++
					}
				}
				return n
			}
			if calls(f1) != 1 || calls(f2) != 0 {
				t.Errorf("%%f calls %%sq %d times at tier 1 and %d at tier 2, want 1 and 0: hot inline missing?",
					calls(f1), calls(f2))
			}
			t.Logf("%s: cycles %d -> %d (%.1f%%), instrs %d -> %d", d.Name,
				cycles1, cycles2, 100*float64(int64(cycles1)-int64(cycles2))/float64(cycles1),
				f1.NumInstrs, f2.NumInstrs)
		})
	}
}
