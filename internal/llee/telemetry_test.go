package llee

import (
	"context"
	"strings"
	"testing"

	"llva/internal/minic"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// TestProfilePersistenceRoundTrip checks the tentpole claim end to end:
// a profile gathered in one session and persisted through the storage
// API is reloaded by a fresh manager (observable as a ProfileLoaded
// event and non-empty trace-cache stats) without re-profiling, and
// seeds trace-driven relayout on the online-translation path.
func TestProfilePersistenceRoundTrip(t *testing.T) {
	st := NewMemStorage()

	// Session 1: gather and persist the profile only — no native cache,
	// so the next session exercises the JIT path.
	m1, err := minic.Compile("hot.c", hotProg)
	if err != nil {
		t.Fatal(err)
	}
	sys1 := NewSystem(WithStorage(st))
	sess1, err := sys1.NewSession(m1, target.VSPARC, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess1.GatherProfile("main"); err != nil {
		t.Fatal(err)
	}
	if got := sys1.Telemetry().CounterValue(MetricProfileStores); got != 1 {
		t.Errorf("profile stores = %d, want 1", got)
	}
	if evs := sys1.Telemetry().Events().Find(telemetry.EvProfileStored); len(evs) != 1 {
		t.Errorf("ProfileStored events = %d, want 1", len(evs))
	}

	// Session 2: fresh manager, same storage. The run misses the native
	// cache but reloads the persisted profile, so the trace cache is
	// seeded before the JIT translates anything.
	m2, err := minic.Compile("hot.c", hotProg)
	if err != nil {
		t.Fatal(err)
	}
	var out2 strings.Builder
	reg := telemetry.New()
	sys2 := NewSystem(WithStorage(st), WithTelemetry(reg))
	sess2, err := sys2.NewSession(m2, target.VSPARC, &out2)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.Telemetry() != reg {
		t.Fatal("WithTelemetry registry not adopted")
	}
	if _, err := sess2.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if !sess2.ProfileSeeded() {
		t.Error("persisted profile was not reloaded")
	}
	if evs := reg.Events().Find(telemetry.EvProfileLoaded); len(evs) != 1 {
		t.Errorf("ProfileLoaded events = %d, want 1", len(evs))
	}
	if ts := sess2.TraceCacheStats(); ts.Traces == 0 || ts.BlocksCovered == 0 {
		t.Errorf("trace cache not seeded: %+v", ts)
	}
	if evs := reg.Events().Find(telemetry.EvTraceFormed); len(evs) != 1 {
		t.Errorf("TraceFormed events = %d, want 1", len(evs))
	}
	// No re-profiling happened: exactly the one stored profile exists and
	// the manager never wrote another.
	if got := reg.CounterValue(MetricProfileStores); got != 0 {
		t.Errorf("session 2 stored %d profiles (re-profiled?)", got)
	}
	if got := reg.CounterValue(MetricCacheMisses); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
	if reg.CounterValue(MetricTranslations) == 0 {
		t.Error("JIT path did not translate (expected online translation)")
	}
	if len(reg.Events().Find(telemetry.EvTranslateEnd)) == 0 {
		t.Error("no TranslateEnd events recorded")
	}
	if len(reg.Events().Find(telemetry.EvJITRequest)) == 0 {
		t.Error("no JITRequest events recorded")
	}
	// The machine flushed its execution counters into the same registry.
	mcStats := sess2.Machine().Stats
	if got := reg.CounterValue("machine.instrs"); got != mcStats.Instrs {
		t.Errorf("machine.instrs: registry %d vs machine %d", got, mcStats.Instrs)
	}
	if got := reg.CounterValue("machine.cycles"); got != mcStats.Cycles {
		t.Errorf("machine.cycles: registry %d vs machine %d", got, mcStats.Cycles)
	}
	if mcStats.Branches == 0 || mcStats.BranchesTaken == 0 || mcStats.BranchesTaken > mcStats.Branches {
		t.Errorf("branch counters: taken %d of %d executed", mcStats.BranchesTaken, mcStats.Branches)
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 3: warm start — cache hit, profile still seeds the trace
	// cache (without relayout), output identical.
	m3, err := minic.Compile("hot.c", hotProg)
	if err != nil {
		t.Fatal(err)
	}
	var out3 strings.Builder
	sys3 := NewSystem(WithStorage(st))
	sess3, err := sys3.NewSession(m3, target.VSPARC, &out3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess3.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if !sess3.CacheHit() {
		t.Error("warm run missed the native cache")
	}
	if !sess3.ProfileSeeded() || sess3.TraceCacheStats().Traces == 0 {
		t.Error("warm run did not reseed the trace cache from storage")
	}
	if out3.String() != out2.String() {
		t.Errorf("output differs: %q vs %q", out3.String(), out2.String())
	}
}
