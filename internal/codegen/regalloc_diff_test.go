package codegen_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"llva/internal/asm"
	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/machine"
	"llva/internal/mem"
	"llva/internal/prof"
	"llva/internal/rt"
	"llva/internal/target"
)

// allocFuzzHelpers are the fixed callees of every generated function:
// a plain callee (clobbers caller-saved registers) and one that unwinds
// for a third of its inputs (exercises the unwind-handler spill rules).
const allocFuzzHelpers = `
long %callee(long %x) {
entry:
    %a = mul long %x, 3
    %b = xor long %a, 42
    ret long %b
}

long %maybe(long %x) {
entry:
    %r = rem long %x, 3 !noexc
    %z = seteq long %r, 0
    br bool %z, label %boom, label %ok
boom:
    unwind
ok:
    %y = add long %x, 7
    ret long %y
}
`

// genAllocSrc generates a random function %f(long, long) stressing the
// register allocator: straight-line chains whose values stay live to the
// end (exhausting both register pools), diamonds and bounded loops with
// phis, calls, and invokes whose handlers use values live across the
// unwind edge. Between segments it drops in the copy coalescer's two
// loop hazards — a pair of phis that swap each iteration, and a phi read
// after the loop whose back-edge copy sits before the exit branch — whose
// results stay live to the end. Those draw from a generator of their own,
// so the segments of a seed are the ones it always had. Deterministic per
// seed.
func genAllocSrc(seed int64) (string, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	hrng := rand.New(rand.NewSource(seed ^ 0x636f616c)) // "coal"
	var b strings.Builder
	b.WriteString(allocFuzzHelpers)
	b.WriteString("long %f(long %p0, long %p1) {\nentry:\n")
	vals := []string{"%p0", "%p1"}
	pick := func() string { return vals[rng.Intn(len(vals))] }
	ops := []string{"add", "sub", "mul", "and", "or", "xor"}
	cur := "entry"
	n := 0
	// hazard emits one coalescer hazard loop over two earlier values and
	// folds its result into the running checksum %hz.
	hz := ""
	hazard := func() {
		n++
		lp, af := fmt.Sprintf("hl%d", n), fmt.Sprintf("ha%d", n)
		va, vb := vals[hrng.Intn(len(vals))], vals[hrng.Intn(len(vals))]
		trips := 1 + hrng.Intn(5)
		res := fmt.Sprintf("%%hr%d", n)
		fmt.Fprintf(&b, "    br label %%%s\n%s:\n", lp, lp)
		if hrng.Intn(2) == 0 { // swap: %hx and %hy exchange every iteration
			fmt.Fprintf(&b, "    %%hx%d = phi long [ %s, %%%s ], [ %%hy%d, %%%s ]\n", n, va, cur, n, lp)
			fmt.Fprintf(&b, "    %%hy%d = phi long [ %s, %%%s ], [ %%hx%d, %%%s ]\n", n, vb, cur, n, lp)
			fmt.Fprintf(&b, "    %%hi%d = phi long [ 0, %%%s ], [ %%hj%d, %%%s ]\n", n, cur, n, lp)
			fmt.Fprintf(&b, "    %%ha%d = phi long [ 0, %%%s ], [ %%hb%d, %%%s ]\n", n, cur, n, lp)
			fmt.Fprintf(&b, "    %%hd%d = sub long %%hx%d, %%hy%d\n", n, n, n)
			fmt.Fprintf(&b, "    %%ht%d = mul long %%ha%d, 3\n", n, n)
			fmt.Fprintf(&b, "    %%hb%d = add long %%ht%d, %%hd%d\n", n, n, n)
			fmt.Fprintf(&b, "    %%hj%d = add long %%hi%d, 1\n", n, n)
			fmt.Fprintf(&b, "    %%hc%d = setlt long %%hj%d, %d\n", n, n, trips)
			fmt.Fprintf(&b, "    br bool %%hc%d, label %%%s, label %%%s\n%s:\n", n, lp, af, af)
			fmt.Fprintf(&b, "    %s = add long %%hb%d, %%hx%d\n", res, n, n)
		} else { // exit-live: the loop's result is the phi, not its successor
			fmt.Fprintf(&b, "    %%hs%d = phi long [ %s, %%%s ], [ %%hn%d, %%%s ]\n", n, va, cur, n, lp)
			fmt.Fprintf(&b, "    %%hi%d = phi long [ 0, %%%s ], [ %%hj%d, %%%s ]\n", n, cur, n, lp)
			fmt.Fprintf(&b, "    %%hn%d = add long %%hs%d, %s\n", n, n, vb)
			fmt.Fprintf(&b, "    %%hj%d = add long %%hi%d, 1\n", n, n)
			fmt.Fprintf(&b, "    %%hc%d = setlt long %%hj%d, %d\n", n, n, trips)
			fmt.Fprintf(&b, "    br bool %%hc%d, label %%%s, label %%%s\n%s:\n", n, lp, af, af)
			fmt.Fprintf(&b, "    %s = xor long %%hs%d, %%hi%d\n", res, n, n)
		}
		cur = af
		if hz == "" {
			hz = res
			return
		}
		sum := fmt.Sprintf("%%hz%d", n)
		fmt.Fprintf(&b, "    %s = add long %s, %s\n", sum, hz, res)
		hz = sum
	}
	segs := 8 + rng.Intn(20)
	for i := 0; i < segs; i++ {
		if hrng.Intn(5) == 0 {
			hazard()
		}
		n++
		switch k := rng.Intn(10); {
		case k < 5: // straight-line arithmetic
			v := fmt.Sprintf("%%v%d", n)
			switch rng.Intn(6) {
			case 0:
				fmt.Fprintf(&b, "    %s = div long %s, %d !noexc\n", v, pick(), 3+rng.Intn(17))
			case 1, 2:
				fmt.Fprintf(&b, "    %s = %s long %s, %d\n", v,
					ops[rng.Intn(len(ops))], pick(), rng.Intn(1000)-500)
			default:
				fmt.Fprintf(&b, "    %s = %s long %s, %s\n", v,
					ops[rng.Intn(len(ops))], pick(), pick())
			}
			vals = append(vals, v)
		case k < 7: // diamond with phi
			c, x, y, ph := fmt.Sprintf("%%c%d", n), fmt.Sprintf("%%x%d", n),
				fmt.Sprintf("%%y%d", n), fmt.Sprintf("%%m%d", n)
			tl, el, ml := fmt.Sprintf("t%d", n), fmt.Sprintf("e%d", n), fmt.Sprintf("m%d", n)
			a, a2 := pick(), pick()
			fmt.Fprintf(&b, "    %s = setlt long %s, %s\n", c, a, a2)
			fmt.Fprintf(&b, "    br bool %s, label %%%s, label %%%s\n", c, tl, el)
			fmt.Fprintf(&b, "%s:\n    %s = add long %s, 1\n    br label %%%s\n", tl, x, a, ml)
			fmt.Fprintf(&b, "%s:\n    %s = mul long %s, 3\n    br label %%%s\n", el, y, a2, ml)
			fmt.Fprintf(&b, "%s:\n    %s = phi long [ %s, %%%s ], [ %s, %%%s ]\n",
				ml, ph, x, tl, y, el)
			cur = ml
			vals = append(vals, ph)
		case k < 8: // call
			v := fmt.Sprintf("%%r%d", n)
			fmt.Fprintf(&b, "    %s = call long %%callee(long %s)\n", v, pick())
			vals = append(vals, v)
		case k < 9: // invoke with a handler that uses a live value
			iv, alt, ph := fmt.Sprintf("%%iv%d", n), fmt.Sprintf("%%alt%d", n),
				fmt.Sprintf("%%h%d", n)
			ok, uh, mg := fmt.Sprintf("ok%d", n), fmt.Sprintf("uh%d", n), fmt.Sprintf("mg%d", n)
			fmt.Fprintf(&b, "    %s = invoke long %%maybe(long %s) to label %%%s unwind label %%%s\n",
				iv, pick(), ok, uh)
			fmt.Fprintf(&b, "%s:\n    %s = add long %s, 11\n    br label %%%s\n", uh, alt, pick(), mg)
			fmt.Fprintf(&b, "%s:\n    br label %%%s\n", ok, mg)
			fmt.Fprintf(&b, "%s:\n    %s = phi long [ %s, %%%s ], [ %s, %%%s ]\n",
				mg, ph, iv, ok, alt, uh)
			cur = mg
			vals = append(vals, ph)
		default: // bounded loop with accumulator phi
			i0, i1 := fmt.Sprintf("%%i%d", n), fmt.Sprintf("%%j%d", n)
			ac0, ac1 := fmt.Sprintf("%%a%d", n), fmt.Sprintf("%%b%d", n)
			c := fmt.Sprintf("%%lc%d", n)
			lp, af := fmt.Sprintf("lp%d", n), fmt.Sprintf("af%d", n)
			seedv, stepv := pick(), pick()
			fmt.Fprintf(&b, "    br label %%%s\n", lp)
			fmt.Fprintf(&b, "%s:\n", lp)
			fmt.Fprintf(&b, "    %s = phi long [ 0, %%%s ], [ %s, %%%s ]\n", i0, cur, i1, lp)
			fmt.Fprintf(&b, "    %s = phi long [ %s, %%%s ], [ %s, %%%s ]\n", ac0, seedv, cur, ac1, lp)
			fmt.Fprintf(&b, "    %s = add long %s, %s\n", ac1, ac0, stepv)
			fmt.Fprintf(&b, "    %s = add long %s, 1\n", i1, i0)
			fmt.Fprintf(&b, "    %s = setlt long %s, %d\n", c, i1, 2+rng.Intn(6))
			fmt.Fprintf(&b, "    br bool %s, label %%%s, label %%%s\n", c, lp, af)
			fmt.Fprintf(&b, "%s:\n", af)
			cur = af
			vals = append(vals, ac1)
		}
	}
	// Fold a wide sample of values into the result: their long live
	// ranges are what forces both pools to exhaust and spill.
	sum := pick()
	for i, k := 0, 8+rng.Intn(12); i < k; i++ {
		n++
		v := fmt.Sprintf("%%s%d", n)
		fmt.Fprintf(&b, "    %s = add long %s, %s\n", v, sum, pick())
		sum = v
	}
	if hz == "" {
		hazard()
	}
	fmt.Fprintf(&b, "    %%ret = add long %s, %s\n    ret long %%ret\n}\n", sum, hz)
	args := []uint64{uint64(rng.Int63n(1000)), uint64(rng.Int63n(1000))}
	return b.String(), args
}

// runNative loads obj into a fresh machine and runs %f, optionally with
// a sampling profiler attached, returning the result and program output.
func runNative(t *testing.T, d *target.Desc, m *core.Module, obj *codegen.NativeObject,
	args []uint64, p *prof.Profiler) (uint64, string) {
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
		t.Fatalf("%s: run: %v", d.Name, err)
	}
	return got, out.String()
}

// TestAllocatorDifferential is the N-way differential oracle: on
// randomized generated functions, the reference interpreter, tier-1 with
// the global linear-scan allocator, tier-1 with the spill-everything
// oracle (UseSpillAllocator), and tier-2 profile-guided translation
// (superblocks + hot inlining, driven by a profile gathered from a real
// tier-1 run) must all agree on the result and the program output, on
// both targets.
func TestAllocatorDifferential(t *testing.T) {
	iters := int64(40)
	if testing.Short() {
		iters = 8
	}
	for seed := int64(1); seed <= iters; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src, args := genAllocSrc(seed)
			m, err := asm.Parse("fuzz", src)
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, src)
			}
			if err := core.Verify(m); err != nil {
				t.Fatalf("verify: %v\n%s", err, src)
			}
			var iout bytes.Buffer
			ip, err := interp.New(m, &iout)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ip.Run("f", args...)
			if err != nil {
				t.Fatalf("interp: %v\n%s", err, src)
			}
			wantOut := iout.String()
			for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
				var linear *codegen.NativeObject
				for _, oracle := range []bool{false, true} {
					name := d.Name + "/linear"
					if oracle {
						name = d.Name + "/spill-oracle"
					}
					tr, err := codegen.New(d, m)
					if err != nil {
						t.Fatal(err)
					}
					tr.UseSpillAllocator(oracle)
					obj, err := tr.TranslateModule()
					if err != nil {
						t.Fatalf("%s: translate: %v\n%s", name, err, src)
					}
					if !oracle {
						linear = obj
					}
					got, out := runNative(t, d, m, obj, args, nil)
					if got != want || out != wantOut {
						t.Errorf("%s: got %#x, interp %#x (seed %d)\n%s",
							name, got, want, seed, src)
					}
				}

				// Tier 2: profile a tier-1 run, then re-translate guided by
				// the gathered artifact and cross-check the optimized code.
				p := prof.NewProfiler(50)
				if got, out := runNative(t, d, m, linear, args, p); got != want || out != wantOut {
					t.Fatalf("%s/profiled: got %#x, interp %#x (seed %d)", d.Name, got, want, seed)
				}
				art := p.Artifact(m.Name, d.Name)
				tr, err := codegen.New(d, m)
				if err != nil {
					t.Fatal(err)
				}
				tr2 := tr.WithTier2(art)
				obj2, err := tr2.TranslateModule()
				if err != nil {
					t.Fatalf("%s/tier2: translate: %v\n%s", d.Name, err, src)
				}
				got, out := runNative(t, d, m, obj2, args, nil)
				if got != want || out != wantOut {
					t.Errorf("%s/tier2: got %#x, interp %#x (seed %d)\n%s",
						d.Name, got, want, seed, src)
				}
			}
		})
	}
}
