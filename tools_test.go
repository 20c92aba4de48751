package llva

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// buildTools compiles the command-line tools once into a temp dir.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	bins := map[string]string{}
	for _, n := range names {
		out := filepath.Join(dir, n)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+n)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", n, err, b)
		}
		bins[n] = out
	}
	return bins
}

func runTool(t *testing.T, bin string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() > 0 && ee.ExitCode() < 126 {
			// program exit codes are data, not tool failures
			return out.String(), errb.String()
		}
		t.Fatalf("%s %v: %v\nstderr: %s", filepath.Base(bin), args, err, errb.String())
	}
	return out.String(), errb.String()
}

// TestToolPipeline drives the full command-line pipeline exactly as the
// README shows: minicc -> llva-dis -> llva-as -> llva-opt -> llva-llc ->
// llva-run (cold, then warm through the storage-API cache; sampled, then
// idle-time optimized, then tier 2 from the cache; a self-modifying
// program on the interpreter, cold and warm; an out-of-range cast
// unoptimized and at -O2), checking each artifact flows into the next,
// and ends with one row of llva-bench's Table 2.
func TestToolPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t, "minicc", "llva-as", "llva-dis", "llva-opt", "llva-llc", "llva-run", "llva-bench")
	work := t.TempDir()

	src := filepath.Join(work, "fib.c")
	if err := os.WriteFile(src, []byte(`
long fib(int n) {
	if (n < 2) return (long)n;
	return fib(n - 1) + fib(n - 2);
}
int main() { print_int(fib(20)); print_nl(); return 0; }
`), 0o644); err != nil {
		t.Fatal(err)
	}

	// 1. compile
	bc := filepath.Join(work, "fib.bc")
	runTool(t, bins["minicc"], "-O", "-o", bc, src)
	if _, err := os.Stat(bc); err != nil {
		t.Fatalf("minicc produced no object: %v", err)
	}

	// 2. disassemble, reassemble: the pipeline must round-trip
	asmText, _ := runTool(t, bins["llva-dis"], bc)
	if !strings.Contains(asmText, "%fib") || !strings.Contains(asmText, "call") {
		t.Fatalf("disassembly looks wrong:\n%s", asmText)
	}
	llvaFile := filepath.Join(work, "fib.llva")
	if err := os.WriteFile(llvaFile, []byte(asmText), 0o644); err != nil {
		t.Fatal(err)
	}
	bc2 := filepath.Join(work, "fib2.bc")
	runTool(t, bins["llva-as"], "-o", bc2, llvaFile)

	// 3. optimize the reassembled object in place
	runTool(t, bins["llva-opt"], "-O2", "-stats", bc2)

	// 4. offline translation metrics for both targets, and the native
	// code itself: fib's n < 2 and n - 1 are ALU and compare immediates
	// on both (vsparc's simm13 holds them), and its recursive calls are
	// relocated
	for _, tgt := range []string{"vx86", "vsparc"} {
		stats, _ := runTool(t, bins["llva-llc"], "-target", tgt, bc2)
		if !strings.Contains(stats, "TOTAL") || !strings.Contains(stats, "fib") {
			t.Errorf("llva-llc %s output missing metrics:\n%s", tgt, stats)
		}
		code, _ := runTool(t, bins["llva-llc"], "-target", tgt, "-S", "-stats=false", bc2)
		for _, want := range []string{"fib:\n", " $2 ", " $1 ", "@fib\n", "  ret "} {
			if !strings.Contains(code, want) {
				t.Errorf("llva-llc -S -target %s: no %q in\n%s", tgt, want, code)
			}
		}
	}

	// 5. run: interpreter and both simulated processors agree
	want := "6765\n"
	outI, _ := runTool(t, bins["llva-run"], "-interp", bc2)
	if outI != want {
		t.Errorf("interp output = %q, want %q", outI, want)
	}
	cache := filepath.Join(work, "cache")
	for _, tgt := range []string{"vx86", "vsparc"} {
		out1, err1 := runTool(t, bins["llva-run"], "-target", tgt, "-cache", cache, "-stats", bc2)
		if out1 != want {
			t.Errorf("%s cold output = %q, want %q", tgt, out1, want)
		}
		if !strings.Contains(err1, "cacheHit=false") {
			t.Errorf("%s first run should be a cache miss: %s", tgt, err1)
		}
		out2, err2 := runTool(t, bins["llva-run"], "-target", tgt, "-cache", cache, "-stats", bc2)
		if out2 != want {
			t.Errorf("%s warm output = %q, want %q", tgt, out2, want)
		}
		if !strings.Contains(err2, "cacheHit=true") {
			t.Errorf("%s second run should hit the cache: %s", tgt, err2)
		}
	}

	// 6. idle-time offline translation into a fresh cache, then a pure hit
	cache2 := filepath.Join(work, "cache2")
	runTool(t, bins["llva-run"], "-target", "vsparc", "-cache", cache2, "-translate-only", bc2)
	out3, err3 := runTool(t, bins["llva-run"], "-target", "vsparc", "-cache", cache2, "-stats", bc2)
	if out3 != want || !strings.Contains(err3, "cacheHit=true") {
		t.Errorf("offline-translated run: out=%q stats=%s", out3, err3)
	}

	// 7. idle-time PGO (Section 4.2): a profiled run stores the guest
	// profile, idle time retranslates every function it counted at tier 2,
	// and a -tier2 start finds all of it in the one code entry and
	// translates nothing
	cache3 := filepath.Join(work, "cache3")
	events := filepath.Join(work, "tier2.json")
	runTool(t, bins["llva-run"], "-target", "vx86", "-cache", cache3, "-prof-store", bc2)
	_, errIdle := runTool(t, bins["llva-run"], "-target", "vx86", "-cache", cache3, "-idle-optimize", "-stats", bc2)
	if !strings.Contains(errIdle, "idle-time:") {
		t.Errorf("-idle-optimize -stats printed no summary: %s", errIdle)
	}
	out4, err4 := runTool(t, bins["llva-run"], "-target", "vx86", "-cache", cache3, "-tier2", "-stats", "-trace-out", events, bc2)
	if out4 != want || !strings.Contains(err4, "cacheHit=true translated=0 ") {
		t.Errorf("-tier2 run after -idle-optimize: out=%q stats=%s", out4, err4)
	}
	log, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(log), `"cat":"CacheHit"`); n != 1 || strings.Contains(string(log), `"cat":"JITRequest"`) {
		t.Errorf("-tier2 run after -idle-optimize: %d CacheHit events, want one and no JITRequest:\n%s", n, log)
	}

	// 8. self-modifying code (Section 3.4) means the same thing on the
	// interpreter, on a cold start and on code loaded from the cache
	smcSrc := filepath.Join(work, "smc.llva")
	if err := os.WriteFile(smcSrc, []byte(smcProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	smcBC := filepath.Join(work, "smc.bc")
	runTool(t, bins["llva-as"], "-o", smcBC, smcSrc)
	wantSMC := "0\n8\n16\n1003\n1004\n1005\n"
	if out, _ := runTool(t, bins["llva-run"], "-interp", smcBC); out != wantSMC {
		t.Errorf("smc on the interpreter = %q, want %q", out, wantSMC)
	}
	for _, tgt := range []string{"vx86", "vsparc"} {
		smcCache := filepath.Join(work, "smc-cache-"+tgt)
		for _, wantHit := range []string{"cacheHit=false", "cacheHit=true"} {
			out, stats := runTool(t, bins["llva-run"], "-target", tgt, "-cache", smcCache, "-stats", smcBC)
			if out != wantSMC || !strings.Contains(stats, wantHit) {
				t.Errorf("smc on %s, %s run: out=%q stats=%s, want %q", tgt, wantHit, out, stats, wantSMC)
			}
		}
	}

	// 9. optimizing never changes what a program prints: an out-of-range
	// float-to-int cast folds to the value every engine computes
	castSrc := filepath.Join(work, "cast.llva")
	if err := os.WriteFile(castSrc, []byte(castProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	castBC, castOpt := filepath.Join(work, "cast.bc"), filepath.Join(work, "cast-O2.bc")
	runTool(t, bins["llva-as"], "-o", castBC, castSrc)
	runTool(t, bins["llva-as"], "-o", castOpt, castSrc)
	runTool(t, bins["llva-opt"], "-O2", castOpt)
	if dis, _ := runTool(t, bins["llva-dis"], castOpt); strings.Contains(dis, "cast double") {
		t.Errorf("llva-opt -O2 left the cast unfolded:\n%s", dis)
	}
	wantCast := "18446744073709551615\n"
	for _, bc := range []string{castBC, castOpt} {
		for _, engine := range [][]string{{"-interp"}, {"-target", "vx86"}, {"-target", "vsparc"}} {
			if out, _ := runTool(t, bins["llva-run"], append(engine, bc)...); out != wantCast {
				t.Errorf("%s on %v prints %q, want %q", filepath.Base(bc), engine, out, wantCast)
			}
		}
	}

	// 10. a !noexc load stays in a loop that stores to its address: ten
	// trips of g = g + 1 print 10 with or without the optimizer
	loopSrc := filepath.Join(work, "noexc.llva")
	if err := os.WriteFile(loopSrc, []byte(noexcLoopProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	loopBC := filepath.Join(work, "noexc.bc")
	runTool(t, bins["llva-as"], "-o", loopBC, loopSrc)
	loopBCs := []string{loopBC}
	for _, opt := range [][]string{{"-passes", "licm"}, {"-O2"}} {
		out := filepath.Join(work, "noexc"+opt[len(opt)-1]+".bc")
		runTool(t, bins["llva-opt"], append(opt, "-o", out, loopBC)...)
		loopBCs = append(loopBCs, out)
	}
	for _, bc := range loopBCs {
		for _, engine := range [][]string{{"-interp"}, {"-target", "vx86"}, {"-target", "vsparc"}} {
			if out, _ := runTool(t, bins["llva-run"], append(engine, bc)...); out != "10\n" {
				t.Errorf("%s on %v prints %q, want \"10\\n\"", filepath.Base(bc), engine, out)
			}
		}
	}

	// 11. one row of the paper's Table 2, tier 2 included
	table, err := exec.Command(bins["llva-bench"], "-workload", "ft", "-tier2").Output()
	if err != nil {
		t.Fatalf("llva-bench -workload ft -tier2: %v", err)
	}
	if !strings.Contains(string(table), "\nptrdist-ft ") || !strings.Contains(string(table), "\nmean expansion: vx86 ") {
		t.Errorf("llva-bench printed no ft row or no mean-expansion line:\n%s", table)
	}
}

// smcProgram replaces %kernel after its third call; the two bodies print
// different numbers, so a run on stale code shows in stdout.
const smcProgram = `
declare void %llva.smc.replace(sbyte* %target, sbyte* %source)
declare void %print_int(long %v)
declare void %print_nl()

long %kernel(long %x) {
entry:
    %r = mul long %x, 8
    ret long %r
}
long %kernel.tuned(long %x) {
entry:
    %r = add long %x, 1000
    ret long %r
}
int %main() {
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i2, %cont ]
    %v = call long %kernel(long %i)
    call void %print_int(long %v)
    call void %print_nl()
    %switch = seteq long %i, 2
    br bool %switch, label %replace, label %cont
replace:
    %t = cast long (long)* %kernel to sbyte*
    %s = cast long (long)* %kernel.tuned to sbyte*
    call void %llva.smc.replace(sbyte* %t, sbyte* %s)
    br label %cont
cont:
    %i2 = add long %i, 1
    %more = setlt long %i2, 6
    br bool %more, label %loop, label %done
done:
    ret int 0
}
`

// castProgram prints an out-of-range float-to-int cast: 1e30 saturates
// at ulong's maximum, folded or not.
const castProgram = `
declare void %print_uint(ulong %v)
declare void %print_nl()

int %main() {
entry:
    %u = cast double 1.0e30 to ulong
    call void %print_uint(ulong %u)
    call void %print_nl()
    ret int 0
}
`

// TestLLCPrintsOperandsUsed: llva-llc -S prints an instruction's
// operands and nothing else. A compare-and-branch on vx86 (cmp, setcc,
// jcc) names no r0 it does not read, and a vsparc jcc, a branch on one
// register compared with zero (SPARC V9's BPr), names exactly one.
func TestLLCPrintsOperandsUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t, "minicc", "llva-llc")
	work := t.TempDir()
	src := filepath.Join(work, "down.c")
	if err := os.WriteFile(src, []byte(`
long down(long n, long k) {
	long s = 0;
	while (n > 0) { if (n != k) s = s + n; n = n - 3; }
	return s;
}
int main() { print_int(down(100, 7)); print_nl(); return 0; }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	bc := filepath.Join(work, "down.bc")
	runTool(t, bins["minicc"], "-O", "-o", bc, src)
	isReg := func(f string) bool {
		return len(f) > 1 && (f[0] == 'r' || f[0] == 'f') && strings.Trim(f[1:], "0123456789") == ""
	}
	for _, tgt := range []string{"vx86", "vsparc"} {
		code, _ := runTool(t, bins["llva-llc"], "-target", tgt, "-S", "-stats=false", bc)
		jccs := 0
		for _, line := range strings.Split(code, "\n") {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				continue
			}
			op := strings.SplitN(fields[1], ".", 2)[0]
			regs := 0
			for _, f := range fields[2:] {
				if isReg(f) {
					regs++
				}
			}
			switch {
			case tgt == "vx86" && (op == "cmp" || op == "setcc" || op == "jcc") && slices.Contains(fields, "r0"):
				t.Errorf("vx86: %q names r0", line)
			case tgt == "vsparc" && op == "jcc":
				jccs++
				if regs != 1 {
					t.Errorf("vsparc: %q names %d registers, want 1", line, regs)
				}
			}
		}
		if tgt == "vsparc" && jccs == 0 {
			t.Errorf("vsparc: no jcc in\n%s", code)
		}
	}
}

// TestTraceSmoke drives the guest observability surface end to end: a
// loop-heavy workload runs under -trace-out and the sampling profiler,
// and the emitted artifacts must be well-formed — the trace a valid
// Chrome trace_event document with at least one complete span, the
// profile attributing the known hot function. A second, trapping
// program must produce the flight recorder's crash report on stderr.
func TestTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t, "minicc", "llva-run")
	work := t.TempDir()

	src := filepath.Join(work, "spin.c")
	if err := os.WriteFile(src, []byte(`
int spin(int n) {
	int i, s = 0;
	for (i = 0; i < n; i++) s += i ^ (s >> 2);
	return s;
}
int main() { print_int(spin(20000)); print_nl(); return 0; }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	// No -O: the inliner would fold %spin into %main and flatten the
	// stack this test asserts on.
	bc := filepath.Join(work, "spin.bc")
	runTool(t, bins["minicc"], "-o", bc, src)

	traceOut := filepath.Join(work, "trace.json")
	profOut := filepath.Join(work, "spin.folded")
	runTool(t, bins["llva-run"],
		"-trace-out", traceOut, "-prof", "-prof-rate", "256",
		"-prof-out", profOut, "-tenant", "smoke", bc)

	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("no trace written: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans, runSpan := 0, false
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		spans++
		if e.Name == "run:main" {
			runSpan = true
			if e.Args["tenant"] != "smoke" {
				t.Errorf("run span misses tenant arg: %v", e.Args)
			}
		}
	}
	if spans < 1 || !runSpan {
		t.Fatalf("trace has %d complete spans (run:main=%v), want >=1 with run:main", spans, runSpan)
	}

	folded, err := os.ReadFile(profOut)
	if err != nil {
		t.Fatalf("no profile written: %v", err)
	}
	if !strings.Contains(string(folded), "main;spin ") {
		t.Errorf("folded profile misses main;spin:\n%s", folded)
	}

	// Crash-report smoke: a null deref must render the post-mortem.
	crashSrc := filepath.Join(work, "crash.c")
	if err := os.WriteFile(crashSrc, []byte(`
long poke(long *p) { return *p; }
int main() { return (int)poke((long*)0); }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	crashBC := filepath.Join(work, "crash.bc")
	runTool(t, bins["minicc"], "-o", crashBC, crashSrc)
	_, stderr := runTool(t, bins["llva-run"], crashBC)
	for _, wantS := range []string{
		"virtual machine crash report", "faulting instruction:",
		"virtual backtrace", "%poke", "registers", "disassembly",
	} {
		if !strings.Contains(stderr, wantS) {
			t.Errorf("crash report missing %q:\n%s", wantS, stderr)
		}
	}
}

// noexcLoopProgram adds 1 to %g ten times through a !noexc load: the
// load reads what the previous trip stored, so it may not leave the loop.
const noexcLoopProgram = `
declare void %print_int(long %v)
declare void %print_nl()

%g = global long 0

int %main() {
entry:
    br label %loop
loop:
    %i = phi long [ 0, %entry ], [ %i1, %loop ]
    %v = load long* %g !noexc
    %v1 = add long %v, 1
    store long %v1, long* %g
    %i1 = add long %i, 1
    %more = setlt long %i1, 10
    br bool %more, label %loop, label %done
done:
    %r = load long* %g
    call void %print_int(long %r)
    call void %print_nl()
    ret int 0
}
`
