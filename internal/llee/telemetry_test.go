package llee

import (
	"context"
	"strings"
	"testing"

	"llva/internal/minic"
	"llva/internal/prof"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// specProg calls cold before hot, so unguided speculation enqueues them
// in that order; only hot collects samples.
const specProg = `
static int cold(int n) { return n + 1; }
static int hot(int n) {
	int k, s = 0;
	for (k = 0; k < 8; k++) s += n % (k + 2);
	return s;
}
int main() {
	int i, acc = cold(1);
	for (i = 0; i < 2000; i++) acc += hot(i);
	print_int(acc); print_nl();
	return 0;
}
`

// specOrder lists the functions a registry saw enqueued for speculative
// translation, in order.
func specOrder(reg *telemetry.Registry) string {
	var names []string
	for _, ev := range reg.Events().Find(telemetry.EvSpecEnqueued) {
		names = append(names, ev.Name)
	}
	return strings.Join(names, ",")
}

// TestProfilePersistenceRoundTrip checks the Section 4.2 loop end to
// end: a guest profile sampled in one session and persisted through the
// storage API is reloaded by a fresh System (one ProfileLoaded event)
// without re-profiling, and orders speculative translation on the
// online path by call count: each function's entry-block entries.
func TestProfilePersistenceRoundTrip(t *testing.T) {
	st := NewMemStorage()

	// Session 1: sample a run and persist the profile. Its native cache
	// entry is dropped, so the next session exercises the JIT path.
	m1, err := minic.Compile("spec.c", specProg)
	if err != nil {
		t.Fatal(err)
	}
	sys1 := NewSystem(WithStorage(st))
	sess1, err := sys1.NewSession(m1, target.VSPARC, &strings.Builder{}, WithProfiler(prof.NewProfiler(64)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess1.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if err := sess1.StoreGuestProfile(); err != nil {
		t.Fatal(err)
	}
	if got := sys1.Telemetry().CounterValue(MetricProfileStores); got != 1 {
		t.Errorf("profile stores = %d, want 1", got)
	}
	if evs := sys1.Telemetry().Events().Find(telemetry.EvProfileStored); len(evs) != 1 {
		t.Errorf("ProfileStored events = %d, want 1", len(evs))
	}
	if got := specOrder(sys1.Telemetry()); got != "cold,hot" {
		t.Errorf("speculation order without a profile = %q, want call order cold,hot", got)
	}
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("native:" + m1.Name + ":" + target.VSPARC.Name); err != nil {
		t.Fatal(err)
	}

	// Session 2: fresh manager, same storage. The run misses the native
	// cache but reloads the persisted profile, so the JIT speculates on
	// the more often called function first.
	m2, err := minic.Compile("spec.c", specProg)
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
	if evs := reg.Events().Find(telemetry.EvProfileLoaded); len(evs) != 1 {
		t.Errorf("ProfileLoaded events = %d, want 1", len(evs))
	}
	if got := specOrder(reg); got != "hot,cold" {
		t.Errorf("speculation order under the profile = %q, want hottest first: hot,cold", got)
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

	// Session 3: warm start — cache hit, the profile loads again, output
	// identical.
	m3, err := minic.Compile("spec.c", specProg)
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
	if evs := sys3.Telemetry().Events().Find(telemetry.EvProfileLoaded); len(evs) != 1 {
		t.Errorf("warm run: ProfileLoaded events = %d, want 1", len(evs))
	}
	if out3.String() != out2.String() {
		t.Errorf("output differs: %q vs %q", out3.String(), out2.String())
	}
}
