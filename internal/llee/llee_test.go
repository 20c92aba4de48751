package llee

import (
	"context"
	"strings"
	"testing"

	"llva/internal/asm"
	"llva/internal/core"
	"llva/internal/minic"
	"llva/internal/target"
)

const testProg = `
int work(int n) {
	int i, acc = 0;
	for (i = 0; i < n; i++) acc += i * i;
	return acc;
}
int main() {
	print_int(work(100)); print_nl();
	return 0;
}
`

func compileTest(t *testing.T) *core.Module {
	t.Helper()
	m, err := minic.Compile("prog.c", testProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunWithoutStorage(t *testing.T) {
	// No storage API: online translation only, still correct (paper:
	// "they are strictly optional and the system will operate correctly
	// in their absence").
	m := compileTest(t)
	sys := NewSystem()
	var out strings.Builder
	sess, err := sys.NewSession(m, target.VX86, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), "main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.String() != "328350\n" {
		t.Errorf("output = %q", out.String())
	}
	if n := sys.Telemetry().CounterValue(MetricTranslations); sess.CacheHit() || n == 0 {
		t.Errorf("expected online JIT translation: cacheHit=%v translations=%d", sess.CacheHit(), n)
	}
}

func TestColdThenWarmCache(t *testing.T) {
	m := compileTest(t)
	st := NewMemStorage()

	// Cold run: JIT, write-back (Close flushes speculative leftovers).
	sys1 := NewSystem(WithStorage(st))
	var out1 strings.Builder
	sess1, err := sys1.NewSession(m, target.VSPARC, &out1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess1.Run(context.Background(), "main"); err != nil {
		t.Fatalf("cold run: %v\n%s", err, out1.String())
	}
	if sess1.CacheHit() {
		t.Error("cold run claimed a cache hit")
	}
	if sys1.Telemetry().CounterValue(MetricTranslations) == 0 {
		t.Error("cold run translated nothing")
	}
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm run: loads the cached translation, no JIT at all.
	m2 := compileTest(t)
	sys2 := NewSystem(WithStorage(st))
	var out2 strings.Builder
	sess2, err := sys2.NewSession(m2, target.VSPARC, &out2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Run(context.Background(), "main"); err != nil {
		t.Fatalf("warm run: %v\n%s", err, out2.String())
	}
	if !sess2.CacheHit() {
		t.Error("warm run missed the cache")
	}
	if n := sys2.Telemetry().CounterValue(MetricTranslations); n != 0 {
		t.Errorf("warm run translated %d functions, want 0", n)
	}
	if out1.String() != out2.String() {
		t.Errorf("outputs differ: %q vs %q", out1.String(), out2.String())
	}
	if sess2.Machine().Stats.JITRequests != 0 {
		t.Errorf("warm run issued %d JIT requests", sess2.Machine().Stats.JITRequests)
	}
}

func TestStaleCacheInvalidatedByStamp(t *testing.T) {
	m := compileTest(t)
	st := NewMemStorage()
	sys := NewSystem(WithStorage(st))
	var out strings.Builder
	sess, err := sys.NewSession(m, target.VX86, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// A *different* program under the same module name must not reuse the
	// stale translation (the timestamp/stamp check, Section 4.1).
	m2, err := minic.Compile("prog.c", strings.Replace(testProg, "100", "10", 1))
	if err != nil {
		t.Fatal(err)
	}
	sys2 := NewSystem(WithStorage(st))
	var out2 strings.Builder
	sess2, err := sys2.NewSession(m2, target.VX86, &out2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if sess2.CacheHit() {
		t.Error("stale cached translation was used despite stamp mismatch")
	}
	if out2.String() != "285\n" {
		t.Errorf("output = %q, want %q", out2.String(), "285\n")
	}
}

func TestOfflineTranslation(t *testing.T) {
	m := compileTest(t)
	st := NewMemStorage()
	sys := NewSystem(WithStorage(st))
	var out strings.Builder
	sess, err := sys.NewSession(m, target.VX86, &out)
	if err != nil {
		t.Fatal(err)
	}
	// Idle-time offline translation, no execution.
	if err := sess.TranslateOffline(); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Error("offline translation executed the program")
	}
	// Subsequent execution hits the cache.
	m2 := compileTest(t)
	sys2 := NewSystem(WithStorage(st))
	var out2 strings.Builder
	sess2, err := sys2.NewSession(m2, target.VX86, &out2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if !sess2.CacheHit() {
		t.Error("offline-translated program was retranslated online")
	}
}

func TestDirStorage(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write("k1", "stampA", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, stamp, ok, err := st.Read("k1")
	if err != nil || !ok || stamp != "stampA" || string(data) != "hello" {
		t.Fatalf("read = %q %q %v %v", data, stamp, ok, err)
	}
	keys, err := st.Keys()
	if err != nil || len(keys) != 1 {
		t.Fatalf("keys = %v (%v)", keys, err)
	}
	if err := st.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := st.Read("k1"); ok {
		t.Error("entry survived delete")
	}
}

const smcProg = `
declare void %llva.smc.replace(sbyte* %target, sbyte* %source)
declare void %print_int(long %v)
declare void %print_nl()

int %impl.v1(int %x) {
entry:
    %r = add int %x, 1
    ret int %r
}
int %impl.v2(int %x) {
entry:
    %r = mul int %x, 100
    ret int %r
}
int %main() {
entry:
    %a = call int %impl.v1(int 5)
    %al = cast int %a to long
    call void %print_int(long %al)
    call void %print_nl()
    %t = cast int (int)* %impl.v1 to sbyte*
    %s = cast int (int)* %impl.v2 to sbyte*
    call void %llva.smc.replace(sbyte* %t, sbyte* %s)
    %b = call int %impl.v1(int 5)
    %bl = cast int %b to long
    call void %print_int(long %bl)
    call void %print_nl()
    ret int 0
}
`

// TestSMCOnMachine checks the full Section 3.4 path on native code: the
// replacement takes effect on the next invocation, via translation
// invalidation and retranslation.
func TestSMCOnMachine(t *testing.T) {
	m, err := asm.Parse("smc", smcProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		sys := NewSystem()
		var out strings.Builder
		sess, err := sys.NewSession(m, d, &out)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(context.Background(), "main"); err != nil {
			t.Fatalf("%s: %v\n%s", d.Name, err, out.String())
		}
		if out.String() != "6\n500\n" {
			t.Errorf("%s: output = %q, want %q", d.Name, out.String(), "6\n500\n")
		}
		if n := sys.Telemetry().CounterValue(MetricInvalidations); n != 1 {
			t.Errorf("%s: invalidations = %d, want 1", d.Name, n)
		}
	}
}
