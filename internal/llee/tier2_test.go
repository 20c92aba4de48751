package llee

import (
	"context"
	"strings"
	"sync"
	"testing"

	"llva/internal/codegen"
	"llva/internal/llee/pipeline"
	"llva/internal/minic"
	"llva/internal/prof"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// seedGuestProfile runs hotProg once under the sampling profiler and
// persists the guest profile (plus, as a side effect of Close, the
// tier-1 native cache). It returns the reference output and the tier-1
// simulated cycle count.
func seedGuestProfile(t *testing.T, st Storage, d *target.Desc) (string, uint64) {
	t.Helper()
	m, err := minic.Compile("hot.c", hotProg)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(WithStorage(st))
	var out strings.Builder
	s, err := sys.NewSession(m, d, &out, WithProfiler(prof.NewProfiler(64)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if err := s.StoreGuestProfile(); err != nil {
		t.Fatal(err)
	}
	cycles := s.Machine().Stats.Cycles
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	return out.String(), cycles
}

// hotFuncs decodes the persisted guest profile and reports which
// functions clear the tier-2 hotness bar: the ones a WithTier2 System
// translates at tier 2, once each.
func hotFuncs(t *testing.T, st Storage, module string, d *target.Desc) map[string]bool {
	t.Helper()
	data, _, ok, err := st.Read("guestprof:" + module + ":" + d.Name)
	if err != nil || !ok {
		t.Fatalf("guest profile read: ok=%v err=%v", ok, err)
	}
	art, err := prof.DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	hot := make(map[string]bool)
	for _, fs := range art.HotFuncs(tier2MinShare) {
		hot[fs.Name] = true
	}
	if len(hot) == 0 {
		t.Fatal("no hot functions in the seeded profile")
	}
	return hot
}

// seedCodeCold is seedGuestProfile followed by the loss of the tier-1
// code cache (an eviction that spared the small, recently read profile):
// the next System starts profile-warm and code-cold.
func seedCodeCold(t *testing.T, st *MemStorage, d *target.Desc) (ref string, tier1 uint64) {
	t.Helper()
	ref, tier1 = seedGuestProfile(t, st, d)
	if err := st.Delete("native:hot.c:" + d.Name); err != nil {
		t.Fatal(err)
	}
	return ref, tier1
}

// settledHot reports how many of the translations s's System settled
// are of hot functions. Not every hot function need be among them:
// tier 2 may have inlined one into its only caller, which then never
// demands it, and speculation may or may not have got to it.
func settledHot(s *Session, hot map[string]bool) (n int) {
	for name := range s.ms.spec.Completed() {
		if hot[name] {
			n++
		}
	}
	return n
}

// jitRequests returns the names of reg's JITRequest events, in order.
func jitRequests(reg *telemetry.Registry) []string {
	var names []string
	for _, ev := range reg.Events().Find(telemetry.EvJITRequest) {
		names = append(names, ev.Name)
	}
	return names
}

// TestTier2WarmStartUsesOptimizedCode: with both the tier-1 cache and a
// guest profile persisted, a WithTier2 system eagerly re-translates the
// hot functions at tier 2 and loads them with the cached object — same
// output, fewer simulated cycles — and a third system skips straight to
// the profile-stamped tier-2 cache without translating anything.
func TestTier2WarmStartUsesOptimizedCode(t *testing.T) {
	st := NewMemStorage()
	ref, baseCycles := seedGuestProfile(t, st, target.VX86)

	m2, err := minic.Compile("hot.c", hotProg)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := telemetry.New()
	sys2 := NewSystem(WithStorage(st), WithTelemetry(reg2), WithTier2(true))
	var out2 strings.Builder
	s2, err := sys2.NewSession(m2, target.VX86, &out2)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.CacheHit() {
		t.Fatal("tier-2 warm start missed the tier-1 cache")
	}
	if _, err := s2.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if out2.String() != ref {
		t.Errorf("tier-2 output = %q, want %q", out2.String(), ref)
	}
	if got := reg2.CounterValue(codegen.MetricTier2Funcs); got == 0 {
		t.Error("warm start translated no tier-2 functions")
	}
	if got := reg2.CounterValue(codegen.MetricSuperblocks); got == 0 {
		t.Error("tier-2 translation formed no superblocks")
	}
	optCycles := s2.Machine().Stats.Cycles
	if optCycles >= baseCycles {
		t.Errorf("tier-2 did not reduce cycles: %d -> %d", baseCycles, optCycles)
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third start: the profile-stamped tier-2 cache is valid, so the hot
	// functions decode from storage — no tier-2 translation at all — and
	// execution is cycle-identical to the second start.
	m3, err := minic.Compile("hot.c", hotProg)
	if err != nil {
		t.Fatal(err)
	}
	reg3 := telemetry.New()
	sys3 := NewSystem(WithStorage(st), WithTelemetry(reg3), WithTier2(true))
	defer sys3.Close()
	var out3 strings.Builder
	s3, err := sys3.NewSession(m3, target.VX86, &out3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if out3.String() != ref {
		t.Errorf("cached tier-2 output = %q, want %q", out3.String(), ref)
	}
	if got := reg3.CounterValue(codegen.MetricTier2Funcs); got != 0 {
		t.Errorf("cached tier-2 start translated %d functions, want 0", got)
	}
	if got := s3.Machine().Stats.Cycles; got != optCycles {
		t.Errorf("cached tier-2 cycles = %d, want %d (byte-identical code)", got, optCycles)
	}
	t.Logf("cycles: tier-1 %d -> tier-2 %d", baseCycles, optCycles)
}

// TestTier2OnlineFirstCall: on a profile-warm, code-cold start a hot
// function is translated at tier 2 the first time it is called. The
// first run is already cheaper than tier 1, no installed code is ever
// replaced, and, since nothing on the way reads the host clock, two
// fresh Systems over two identically seeded stores retire the same
// cycles.
func TestTier2OnlineFirstCall(t *testing.T) {
	var first [2]uint64
	for i := range first {
		st := NewMemStorage()
		ref, tier1 := seedCodeCold(t, st, target.VX86)
		m, err := compileHot(t)
		if err != nil {
			t.Fatal(err)
		}
		hot := hotFuncs(t, st, m.Name, target.VX86)

		reg := telemetry.New()
		sys := NewSystem(WithStorage(st), WithTelemetry(reg), WithTier2(true))
		var out strings.Builder
		s, err := sys.NewSession(m, target.VX86, &out)
		if err != nil {
			t.Fatal(err)
		}
		if s.CacheHit() {
			t.Fatal("code-cold start hit the tier-1 cache")
		}
		r, err := s.Run(context.Background(), "main")
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != ref {
			t.Errorf("output = %q, want %q", out.String(), ref)
		}
		if r.Cycles >= tier1 {
			t.Errorf("first run is not cheaper than tier 1: %d vs %d cycles", r.Cycles, tier1)
		}
		if n := s.Machine().Stats.Replacements; n != 0 {
			t.Errorf("%d installed functions were replaced, want 0", n)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		// Every hot function that was translated was translated by tr2.
		if got, want := reg.CounterValue(codegen.MetricTier2Funcs), settledHot(s, hot); want == 0 || got != uint64(want) {
			t.Errorf("%s = %d, want %d (> 0)", codegen.MetricTier2Funcs, got, want)
		}
		first[i] = r.Cycles
		t.Logf("start %d: tier-1 %d -> first run %d cycles (%d hot funcs)", i, tier1, r.Cycles, len(hot))
	}
	if first[0] != first[1] {
		t.Errorf("two identically seeded code-cold starts retired %d and %d cycles", first[0], first[1])
	}
}

// TestTier2ConcurrentSessions: 8 sessions of one code-cold WithTier2
// System demand the same functions at once. Each must produce the
// reference output; the System translates each demanded function exactly
// once, the hot ones at tier 2 and never at tier 1 (singleflight, with
// the translator chosen before the flight starts); no session ever has
// installed code replaced; and every run of every session retires the
// same cycles, whichever session's demand did the translating.
func TestTier2ConcurrentSessions(t *testing.T) {
	st := NewMemStorage()
	ref, _ := seedCodeCold(t, st, target.VX86)
	m, err := compileHot(t)
	if err != nil {
		t.Fatal(err)
	}
	hot := hotFuncs(t, st, m.Name, target.VX86)

	reg := telemetry.New()
	sys := NewSystem(WithStorage(st), WithTelemetry(reg), WithTier2(true))
	const sessions = 8
	outs := make([]strings.Builder, sessions)
	sess := make([]*Session, sessions)
	for i := range sess {
		s, err := sys.NewSession(m, target.VX86, &outs[i])
		if err != nil {
			t.Fatal(err)
		}
		sess[i] = s
	}
	var cycles [sessions][2]uint64
	var wg sync.WaitGroup
	for i := range sess {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for run := range cycles[i] {
				r, err := sess[i].Run(context.Background(), "main")
				if err != nil {
					t.Errorf("session %d run %d: %v", i, run, err)
					return
				}
				cycles[i][run] = r.Cycles
			}
		}(i)
	}
	wg.Wait()
	for i := range outs {
		if outs[i].String() != ref+ref {
			t.Errorf("session %d: output = %q, want %q", i, outs[i].String(), ref+ref)
		}
		if cycles[i] != cycles[0] {
			t.Errorf("session %d retired %v cycles per run, session 0 %v", i, cycles[i], cycles[0])
		}
		if n := sess[i].Machine().Stats.Replacements; n != 0 {
			t.Errorf("session %d: %d installed functions were replaced, want 0", i, n)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// Speculation is on, so a function may have been translated by a
	// worker rather than by one of the 8 demands for it; either way once,
	// and the hot ones by tr2.
	settled := sess[0].ms.spec.Completed()
	for _, name := range jitRequests(reg) {
		if settled[name] == nil {
			t.Errorf("%s was demanded and has no settled translation", name)
		}
	}
	translated := reg.CounterValue(MetricTranslations) + reg.CounterValue(pipeline.MetricSpecTranslated)
	if translated != uint64(len(settled)) {
		t.Errorf("%d translations for %d distinct functions", translated, len(settled))
	}
	if got, want := reg.CounterValue(codegen.MetricTier2Funcs), settledHot(sess[0], hot); want == 0 || got != uint64(want) {
		t.Errorf("%s = %d, want %d (> 0)", codegen.MetricTier2Funcs, got, want)
	}
}

// TestTier2OnlineWriteBack: what an online tier-2 run translated is
// written back split by tier, hot functions to native2 and the rest to
// native, so the next WithTier2 start hits both entries, translates
// nothing and installs all of it before the run; and a plain start over
// the same store, which may not use native2, demands exactly the hot
// functions once and is fully warm on the start after.
func TestTier2OnlineWriteBack(t *testing.T) {
	st := NewMemStorage()
	ref, tier1 := seedCodeCold(t, st, target.VX86)
	m, err := compileHot(t)
	if err != nil {
		t.Fatal(err)
	}
	hot := hotFuncs(t, st, m.Name, target.VX86)
	start := func(tier2 bool) (*telemetry.Registry, *Session, uint64) {
		t.Helper()
		m, err := compileHot(t)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		sys := NewSystem(WithStorage(st), WithTelemetry(reg), WithTier2(tier2))
		var out strings.Builder
		s, err := sys.NewSession(m, target.VX86, &out)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(context.Background(), "main")
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != ref {
			t.Errorf("tier2=%v: output = %q, want %q", tier2, out.String(), ref)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		return reg, s, r.Cycles
	}
	warm := func(what string, reg *telemetry.Registry, s *Session, hits uint64) {
		t.Helper()
		if !s.CacheHit() {
			t.Errorf("%s missed the tier-1 cache", what)
		}
		if got := reg.CounterValue(MetricCacheHits); got != hits {
			t.Errorf("%s: %s = %d, want %d", what, MetricCacheHits, got, hits)
		}
		if got := reg.CounterValue(MetricTranslations) + reg.CounterValue(codegen.MetricTier2Funcs); got != 0 {
			t.Errorf("%s translated %d functions, want 0", what, got)
		}
		if names := jitRequests(reg); len(names) != 0 {
			t.Errorf("%s demanded %v: not everything cached was installed before the run", what, names)
		}
	}

	start(true) // online: translates, writes both entries back

	reg, s, cycles := start(true)
	warm("the WithTier2 start after the online run", reg, s, 2)
	if cycles >= tier1 {
		t.Errorf("warm tier-2 start is not cheaper than tier 1: %d vs %d cycles", cycles, tier1)
	}

	reg, s, _ = start(false)
	if !s.CacheHit() {
		t.Error("plain start missed the tier-1 cache")
	}
	names := jitRequests(reg)
	if len(names) != len(hot) {
		t.Errorf("plain start demanded %v, want the %d hot functions once each", names, len(hot))
	}
	for _, name := range names {
		if !hot[name] {
			t.Errorf("plain start demanded %s, which is not hot and should have been in native", name)
		}
	}
	if got := reg.CounterValue(codegen.MetricTier2Funcs); got != 0 {
		t.Errorf("plain start translated %d functions at tier 2", got)
	}

	reg, s, _ = start(false)
	warm("the plain start after that", reg, s, 1)
}

// TestPreloadArmsTier2: Preload on a profile-warm, code-cold module (the
// LRU evicted the code, not the profile) translates the hot functions at
// tier 2 along with the whole module at tier 1, as a cache-warm start
// would have, and its sessions run that code.
func TestPreloadArmsTier2(t *testing.T) {
	preloaded := func(tier2 bool) (*telemetry.Registry, *Session, uint64, int) {
		t.Helper()
		st := NewMemStorage()
		ref, _ := seedCodeCold(t, st, target.VX86)
		m, err := compileHot(t)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		sys := NewSystem(WithStorage(st), WithTelemetry(reg), WithTier2(tier2))
		defer sys.Close()
		if err := sys.Preload(m, target.VX86); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		s, err := sys.NewSession(m, target.VX86, &out, WithReuse(true))
		if err != nil {
			t.Fatal(err)
		}
		if !s.Resettable() {
			t.Errorf("tier2=%v: session of a preloaded module is not reusable", tier2)
		}
		r, err := s.Run(context.Background(), "main")
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != ref {
			t.Errorf("tier2=%v: output = %q, want %q", tier2, out.String(), ref)
		}
		return reg, s, r.Cycles, len(hotFuncs(t, st, m.Name, target.VX86))
	}
	_, _, plain, _ := preloaded(false)
	reg, s, cycles, hot := preloaded(true)
	if got := reg.CounterValue(codegen.MetricTier2Funcs); got != uint64(hot) {
		t.Errorf("%s = %d, want %d", codegen.MetricTier2Funcs, got, hot)
	}
	if len(s.ms.loaded2) != hot {
		t.Errorf("%d tier-2 functions loaded, want %d", len(s.ms.loaded2), hot)
	}
	if cycles >= plain {
		t.Errorf("preloaded tier-2 session is not cheaper than a plain one: %d vs %d cycles", cycles, plain)
	}
}

// TestStoreGuestProfileMerges: two processes profiling the same module
// accumulate — the second StoreGuestProfile merges with the persisted
// artifact instead of overwriting it.
func TestStoreGuestProfileMerges(t *testing.T) {
	st := NewMemStorage()
	var want uint64
	for i := 0; i < 2; i++ {
		m, err := minic.Compile("hot.c", hotProg)
		if err != nil {
			t.Fatal(err)
		}
		sys := NewSystem(WithStorage(st))
		p := prof.NewProfiler(64)
		s, err := sys.NewSession(m, target.VX86, &strings.Builder{}, WithProfiler(p))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background(), "main"); err != nil {
			t.Fatal(err)
		}
		if err := s.StoreGuestProfile(); err != nil {
			t.Fatal(err)
		}
		if p.Total() == 0 {
			t.Fatalf("process %d recorded no samples", i)
		}
		// The persisted artifact accumulates every process's samples.
		want += p.Total()
		a, ok, err := s.LoadGuestProfile()
		if err != nil || !ok {
			t.Fatalf("load after store %d: ok=%v err=%v", i, ok, err)
		}
		if a.Total != want {
			t.Errorf("store %d: persisted total = %d, want %d (sum of both processes)", i, a.Total, want)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
