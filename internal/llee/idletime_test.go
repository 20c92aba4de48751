package llee

import (
	"context"
	"strings"
	"testing"

	"llva/internal/minic"
	"llva/internal/target"
)

const hotProg = `
static int classify(int n) {
	if (n % 7 == 0) return 3;      /* cold */
	if (n % 2 == 0) return 1;      /* warm */
	return 2;                       /* hot-ish */
}
int main() {
	int i, acc = 0;
	for (i = 0; i < 3000; i++) acc += classify(i);
	print_int(acc); print_nl();
	return 0;
}
`

// TestIdleTimePGO drives the paper's Section 4.2 loop: run + profile,
// idle-time reoptimize into the cache, then a warm run executes the
// trace-optimized translation with no online translation at all.
func TestIdleTimePGO(t *testing.T) {
	st := NewMemStorage()

	// Session 1: normal run, then profile gathering (transparent to the
	// user in the paper; explicit here).
	m1, err := minic.Compile("hot.c", hotProg)
	if err != nil {
		t.Fatal(err)
	}
	sys1 := NewSystem(WithStorage(st))
	var out1 strings.Builder
	sess1, err := sys1.NewSession(m1, target.VSPARC, &out1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess1.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if err := sess1.GatherProfile("main"); err != nil {
		t.Fatal(err)
	}
	baseCycles := sess1.Machine().Stats.Cycles
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	// Idle time: reoptimize with the stored profile.
	m2, err := minic.Compile("hot.c", hotProg)
	if err != nil {
		t.Fatal(err)
	}
	sys2 := NewSystem(WithStorage(st))
	sess2, err := sys2.NewSession(m2, target.VSPARC, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sess2.IdleTimeOptimize()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Traces == 0 {
		t.Error("idle-time optimization formed no traces")
	}

	// Session 2: the user runs again — pure cache hit on optimized code,
	// identical output, and no regression in simulated cycles.
	m3, err := minic.Compile("hot.c", hotProg)
	if err != nil {
		t.Fatal(err)
	}
	sys3 := NewSystem(WithStorage(st))
	var out3 strings.Builder
	sess3, err := sys3.NewSession(m3, target.VSPARC, &out3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess3.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if !sess3.CacheHit() {
		t.Error("post-idle-time run missed the cache")
	}
	if n := sys3.Telemetry().CounterValue(MetricTranslations); n != 0 {
		t.Errorf("post-idle-time run translated %d functions online", n)
	}
	if out3.String() != out1.String() {
		t.Errorf("optimized output differs: %q vs %q", out3.String(), out1.String())
	}
	optCycles := sess3.Machine().Stats.Cycles
	if optCycles > baseCycles+baseCycles/50 {
		t.Errorf("idle-time optimization regressed cycles: %d -> %d", baseCycles, optCycles)
	}
	t.Logf("cycles: %d -> %d; traces=%d coverage=%.0f%%",
		baseCycles, optCycles, stats.Traces, stats.Coverage*100)
}

// TestIdleTimeWithoutProfile falls back to a plain offline translation.
func TestIdleTimeWithoutProfile(t *testing.T) {
	st := NewMemStorage()
	m, err := minic.Compile("hot.c", hotProg)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(WithStorage(st))
	sess, err := sys.NewSession(m, target.VX86, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sess.IdleTimeOptimize()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Traces != 0 {
		t.Error("traces formed with no profile")
	}
	// And the translation landed in the cache.
	m2, _ := minic.Compile("hot.c", hotProg)
	sys2 := NewSystem(WithStorage(st))
	sess2, err := sys2.NewSession(m2, target.VX86, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if !sess2.CacheHit() {
		t.Error("offline translation did not populate the cache")
	}
}
