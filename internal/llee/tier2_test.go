package llee

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"llva/internal/codegen"
	"llva/internal/interp"
	"llva/internal/minic"
	"llva/internal/obj"
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
// functions it counted entries of: the ones a WithTier2 System
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
	for _, b := range art.Blocks {
		hot[b.Func] = true
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
// demands it.
func settledHot(s *Session, hot map[string]bool) (n int) {
	for name := range s.ms.settled() {
		if hot[name] {
			n++
		}
	}
	return n
}

// heldTier2 counts the functions whose code in s's module state a guest
// profile guided: the records tagged with a profile stamp.
func heldTier2(s *Session) (n int) {
	s.ms.mu.Lock()
	defer s.ms.mu.Unlock()
	for _, cf := range s.ms.held {
		if cf.profile != "" {
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

// startHot is one process's life over st: a fresh System, WithTier2 or not,
// runs hotProg in one session (which stores its samples first when opts
// attach a profiler), checks the output against ref and closes.
func startHot(t *testing.T, st Storage, ref string, tier2 bool, opts ...SessionOption) (*telemetry.Registry, *Session, uint64) {
	t.Helper()
	m, err := compileHot(t)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	sys := NewSystem(WithStorage(st), WithTelemetry(reg), WithTier2(tier2))
	var out strings.Builder
	s, err := sys.NewSession(m, target.VX86, &out, opts...)
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
	if s.Profiler() != nil {
		if err := s.StoreGuestProfile(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	return reg, s, r.Cycles
}

// TestTier2WarmStartUsesOptimizedCode: with both the tier-1 cache and a
// guest profile persisted, a WithTier2 system eagerly re-translates the
// hot functions at tier 2 and loads them with the cached object — same
// output, fewer simulated cycles — and a third system finds their records
// tagged with the profile's stamp and translates nothing. The code entry is
// stamped by the module alone and a profile only tags records, so once the
// profile has moved on (another tier-1 run's entries were merged in) the
// fourth start pays for the hot functions, translated once more ahead of
// the run, and nothing else: the entry is not evicted, and every other
// function is installed from it untranslated.
func TestTier2WarmStartUsesOptimizedCode(t *testing.T) {
	st := NewMemStorage()
	ref, baseCycles := seedGuestProfile(t, st, target.VX86)
	start := func(what string, opts ...SessionOption) (*telemetry.Registry, *Session, uint64) {
		t.Helper()
		reg, s, cycles := startHot(t, st, ref, true, opts...)
		// Whatever it translated, it did so ahead of the run, over one hit.
		if !s.CacheHit() || reg.CounterValue(MetricCacheHits) != 1 || len(jitRequests(reg)) != 0 {
			t.Errorf("%s: CacheHit = %v, %s = %d, demanded %v", what, s.CacheHit(),
				MetricCacheHits, reg.CounterValue(MetricCacheHits), jitRequests(reg))
		}
		return reg, s, cycles
	}
	translated := func(reg *telemetry.Registry) (all, tier2 uint64) {
		return reg.CounterValue(MetricTranslations), reg.CounterValue(codegen.MetricTier2Funcs)
	}

	p1 := hotFuncs(t, st, "hot.c", target.VX86)
	reg, s, optCycles := start("second start")
	if all, tier2 := translated(reg); all != uint64(len(p1)) || tier2 != all {
		t.Errorf("second start translated %d functions, %d at tier 2, want the %d hot ones", all, tier2, len(p1))
	}
	// hotProg's win needs the profile (its comment): a superblock is main's
	// loop laid out with the diamond's hot side as the fall-through, and the
	// fewer cycles are that layout plus classify inlined at the hot call.
	// Tier 1 already inverts branches and threads jumps.
	if got := reg.CounterValue(codegen.MetricSuperblocks); got == 0 {
		t.Error("tier-2 translation formed no superblocks")
	}
	if optCycles >= baseCycles {
		t.Errorf("tier-2 did not reduce cycles: %d -> %d", baseCycles, optCycles)
	}
	tag1 := s.ms.plan.profile

	// Third start: the hot functions' records carry this profile's stamp,
	// so they decode from storage — no tier-2 translation at all — and
	// execution is cycle-identical to the second start. It is profiled, and
	// it stores what it counted; but every function it entered runs tier-2
	// code, which counts no block entries, so the stored profile — and with
	// it the tag a plan takes from it — stays exactly as it was.
	profKey := "guestprof:hot.c:" + target.VX86.Name
	storedProfile := func() ([]byte, string) {
		t.Helper()
		data, stamp, ok, err := st.Read(profKey)
		if err != nil || !ok {
			t.Fatalf("guest profile read: ok=%v err=%v", ok, err)
		}
		return data, stamp
	}
	before, _ := storedProfile()
	reg, _, cycles := start("third start", WithProfiler(prof.NewProfiler(64)))
	if all, tier2 := translated(reg); all+tier2 != 0 || cycles != optCycles {
		t.Errorf("third start translated %d functions (%d at tier 2) and retired %d cycles, want 0 and %d (byte-identical code)",
			all, tier2, cycles, optCycles)
	}
	if n := reg.CounterValue(MetricProfileStores); n != 1 {
		t.Errorf("third start stored %d profiles, want 1", n)
	}
	data, stamp := storedProfile()
	if !slices.Equal(data, before) || Stamp(data) != tag1 {
		t.Errorf("a profiled run of tier-2 code changed the stored profile (tag %s, was %s)", Stamp(data), tag1)
	}

	// The profile moves on only through tier-1 code: a profiled tier-1 run
	// elsewhere entered every block as often again, and its store merged
	// that in.
	p1art, err := prof.DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := prof.DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1art.Merge(again); err != nil {
		t.Fatal(err)
	}
	if data, err = p1art.Encode(); err != nil {
		t.Fatal(err)
	}
	if err := st.Write(profKey, stamp, data); err != nil {
		t.Fatal(err)
	}

	// Merged entries only add up, so the newer profile counted the same
	// functions: the same hot set, under a new tag.
	if p2 := hotFuncs(t, st, "hot.c", target.VX86); !maps.Equal(p2, p1) {
		t.Fatalf("the merged profile's hot set is %v, want the first profile's %v", p2, p1)
	}
	reg, s, cycles = start("fourth start")
	if s.ms.plan.profile == tag1 {
		t.Fatal("the merged profile armed the plan of the one before it")
	}
	for _, name := range []string{MetricStampMismatches, MetricCacheEvictions, MetricCacheMisses} {
		if got := reg.CounterValue(name); got != 0 {
			t.Errorf("fourth start: %s = %d, want 0: a profile does not invalidate the entry", name, got)
		}
	}
	if all, tier2 := translated(reg); all != uint64(len(p1)) || tier2 != all {
		t.Errorf("fourth start translated %d functions, %d at tier 2, want the %d hot ones and nothing else", all, tier2, len(p1))
	}
	if cycles >= baseCycles {
		t.Errorf("fourth start is not cheaper than tier 1: %d vs %d cycles", cycles, baseCycles)
	}
	for name, cf := range s.ms.held {
		want := ""
		if p1[name] {
			want = s.ms.plan.profile
		}
		if cf.profile != want {
			t.Errorf("%s is tagged %q, want %q", name, cf.profile, want)
		}
	}
	t.Logf("cycles: tier-1 %d -> tier-2 %d -> under the newer profile %d", baseCycles, optCycles, cycles)
}

// TestTier2OnlineFirstCall: on a profile-warm, code-cold start a hot
// function is translated at tier 2 the first time it is called. The
// first run is already cheaper than tier 1 (main is demanded first, so
// its trace layout and its inlined copy of classify run from the first
// instruction on), no installed code is ever
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
	// Each function was demanded by all 8 sessions and translated once,
	// by whichever demand came first; the hot ones by tr2.
	demanded := map[string]bool{}
	requests := jitRequests(reg)
	for _, name := range requests {
		demanded[name] = true
	}
	if len(requests) != sessions*len(demanded) {
		t.Errorf("%d demands of %d distinct functions by %d sessions", len(requests), len(demanded), sessions)
	}
	settled := sess[0].ms.settled()
	for name := range demanded {
		if settled[name] == nil {
			t.Errorf("%s was demanded and has no settled translation", name)
		}
	}
	if translated := reg.CounterValue(MetricTranslations); translated != uint64(len(demanded)) || len(settled) != len(demanded) {
		t.Errorf("%d translations, %d settled, for %d distinct demanded functions", translated, len(settled), len(demanded))
	}
	if got, want := reg.CounterValue(codegen.MetricTier2Funcs), settledHot(sess[0], hot); want == 0 || got != uint64(want) {
		t.Errorf("%s = %d, want %d (> 0)", codegen.MetricTier2Funcs, got, want)
	}
}

// TestTier2OnlineWriteBack: what an online tier-2 run translated is
// written back as one entry, each hot function's record tagged with the
// profile's stamp, so the next start over the store, WithTier2 or plain,
// hits that entry once, translates nothing and installs all of it before
// the run: cached code is code, whichever translator produced it.
func TestTier2OnlineWriteBack(t *testing.T) {
	st := NewMemStorage()
	ref, tier1 := seedCodeCold(t, st, target.VX86)
	startHot(t, st, ref, true) // online: translates, writes the entry back
	if keys, err := st.Keys(); err != nil || len(keys) != 2 {
		t.Errorf("Keys() = %v, %v; want the code entry and the guest profile", keys, err)
	}

	var warm [2]uint64
	for i, tier2 := range []bool{true, false} {
		what := fmt.Sprintf("the tier2=%v start after the online run", tier2)
		reg, s, cycles := startHot(t, st, ref, tier2)
		if !s.CacheHit() {
			t.Errorf("%s missed the cache", what)
		}
		if got := reg.CounterValue(MetricCacheHits); got != 1 {
			t.Errorf("%s: %s = %d, want 1", what, MetricCacheHits, got)
		}
		if got := reg.CounterValue(MetricTranslations) + reg.CounterValue(codegen.MetricTier2Funcs); got != 0 {
			t.Errorf("%s translated %d functions, want 0", what, got)
		}
		if names := jitRequests(reg); len(names) != 0 {
			t.Errorf("%s demanded %v: not everything cached was installed before the run", what, names)
		}
		if cycles >= tier1 {
			t.Errorf("%s is not cheaper than tier 1: %d vs %d cycles", what, cycles, tier1)
		}
		warm[i] = cycles
	}
	if warm[0] != warm[1] {
		t.Errorf("the same cached code retired %d cycles WithTier2 and %d without", warm[0], warm[1])
	}
}

// TestPreloadArmsTier2: Preload on a profile-warm, code-cold module (the
// LRU evicted the code, not the profile) translates the hot functions at
// tier 2 along with the whole module at tier 1, as a cache-warm start
// would have, and its sessions run that code: cheaper than the plain
// preload's by main's trace layout and hot inlining, which only the armed
// profile can give (hotProg's comment).
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
	if n := heldTier2(s); n != hot {
		t.Errorf("%d tier-2 functions held, want %d", n, hot)
	}
	if cycles >= plain {
		t.Errorf("preloaded tier-2 session is not cheaper than a plain one: %d vs %d cycles", cycles, plain)
	}
}

// TestStoreGuestProfileMerges: two processes profiling the same module
// accumulate — the second StoreGuestProfile merges with the persisted
// artifact instead of overwriting it, whatever rate each sampled at.
func TestStoreGuestProfileMerges(t *testing.T) {
	st := NewMemStorage()
	var first []prof.BlockCount
	for i, rate := range []int{64, 251} {
		m, err := minic.Compile("hot.c", hotProg)
		if err != nil {
			t.Fatal(err)
		}
		sys := NewSystem(WithStorage(st))
		p := prof.NewProfiler(rate)
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
		a, ok, err := s.LoadGuestProfile()
		if err != nil || !ok {
			t.Fatalf("load after store %d: ok=%v err=%v", i, ok, err)
		}
		if i == 0 {
			if first = a.Blocks; len(first) == 0 {
				t.Fatal("the first process counted no block entries")
			}
		}
		// Both processes run hotProg's tier-1 code, so each enters every
		// block as often as the other: after process i the persisted entries
		// are i+1 times the first process's.
		want := slices.Clone(first)
		for j := range want {
			want[j].Count *= uint64(i + 1)
		}
		if !slices.Equal(a.Blocks, want) {
			t.Errorf("store %d (rate %d): persisted entries\n%v\nwant %d times the first process's\n%v",
				i, rate, a.Blocks, i+1, first)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOlderTranslatorsCacheIsAMiss: a store written by a build whose
// translator emitted other code (its stamps lack this build's
// codegen.Revision: the parent commit's were the module hash alone) holds
// nothing this build may use. The code entry would run the older bodies,
// and the guest profile's samples were taken in that code's address
// space, so mapped onto this build's block offsets they would be wrong
// heat, silently. Both read as stamp mismatches: evicted, everything
// translated online at tier 1, nothing at tier 2, the interpreter's output,
// and a store that is this build's afterwards.
func TestOlderTranslatorsCacheIsAMiss(t *testing.T) {
	st := NewMemStorage()
	seedGuestProfile(t, st, target.VX86)
	m, err := compileHot(t)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	ip, err := interp.New(m, &want)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.RunMain(); err != nil {
		t.Fatal(err)
	}

	// The stamp the parent commit wrote and validated both keys under.
	enc, err := obj.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(enc)
	parentStamp := hex.EncodeToString(h[:8])
	if parentStamp == Stamp(enc) {
		t.Fatal("Stamp does not carry the translator's revision")
	}
	codeKey, profKey := "native:hot.c:vx86", "guestprof:hot.c:vx86"
	// The older build's code entry: well-formed, and of a program that
	// prints something else, so running it would show.
	other, err := minic.Compile("hot.c", strings.Replace(hotProg, "3000", "30", 1))
	if err != nil {
		t.Fatal(err)
	}
	nobj := translateModule(t, other, target.VX86)
	stale := encodeCachedObject(&cachedObject{TargetName: "vx86", Module: "hot.c", Funcs: tier1Records(nobj.Funcs)})
	if err := st.Write(codeKey, parentStamp, stale); err != nil {
		t.Fatal(err)
	}
	// Its guest profile: the one just sampled, which marks functions hot.
	profile, _, ok, err := st.Read(profKey)
	if err != nil || !ok {
		t.Fatalf("seeded profile: ok=%v err=%v", ok, err)
	}
	if err := st.Write(profKey, parentStamp, profile); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	sys := NewSystem(WithStorage(st), WithTelemetry(reg), WithTier2(true))
	var out strings.Builder
	s, err := sys.NewSession(m, target.VX86, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Errorf("output %q, interpreter %q: the older translator's code ran", out.String(), want.String())
	}
	if s.CacheHit() {
		t.Error("the older translator's code entry was a hit")
	}
	for name, n := range map[string]uint64{MetricStampMismatches: 2, MetricCacheEvictions: 2, MetricCacheHits: 0} {
		if got := reg.CounterValue(name); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	if len(jitRequests(reg)) == 0 {
		t.Error("nothing was translated online")
	}
	if n := reg.CounterValue(codegen.MetricTier2Funcs); n != 0 || heldTier2(s) != 0 || s.ms.plan.profile != "" {
		t.Errorf("the stale profile armed tier 2: %d functions translated, %d held, plan %q",
			n, heldTier2(s), s.ms.plan.profile)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, stamp, ok, _ := st.Read(codeKey); !ok || stamp != Stamp(enc) {
		t.Errorf("after the run the code entry is stamped %q (present: %v), want this build's %q", stamp, ok, Stamp(enc))
	}
	if _, _, ok, _ := st.Read(profKey); ok {
		t.Error("the older build's guest profile is still in the store")
	}
}

// TestTier2CodeAddsNoBlockCounts: a profiled session that runs tier-2 code
// stores its profile, but the stored block entries of the functions it ran
// at tier 2 stay what tier 1 counted. Tier-2 bodies carry no block table:
// their blocks are a transformed clone's, and counting them against the
// module's blocks would be wrong heat for the next tier 2.
func TestTier2CodeAddsNoBlockCounts(t *testing.T) {
	st := NewMemStorage()
	ref, _ := seedGuestProfile(t, st, target.VX86)
	stored := func() *prof.Artifact {
		t.Helper()
		data, _, ok, err := st.Read("guestprof:hot.c:" + target.VX86.Name)
		if err != nil || !ok {
			t.Fatalf("guest profile read: ok=%v err=%v", ok, err)
		}
		a, err := prof.DecodeArtifact(data)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	before := stored()
	reg, s, _ := startHot(t, st, ref, true, WithProfiler(prof.NewProfiler(64)))
	after := stored()
	if n := reg.CounterValue(MetricProfileStores); n != 1 {
		t.Fatalf("the tier-2 session stored %d profiles, want 1", n)
	}
	ranAtTier2 := 0
	for name, cf := range s.ms.held {
		if cf.profile == "" {
			continue
		}
		if len(before.BlockCounts(name)) > 0 {
			ranAtTier2++
		}
		if got, want := after.BlockCounts(name), before.BlockCounts(name); !slices.Equal(got, want) {
			t.Errorf("%%%s ran at tier 2, and its stored block entries moved:\n got %v\nwant %v", name, got, want)
		}
	}
	if ranAtTier2 == 0 {
		t.Fatal("no function with block entries ran at tier 2")
	}
}
