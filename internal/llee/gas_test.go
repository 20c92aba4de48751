package llee

import (
	"context"
	"errors"
	"io"
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/machine"
	"llva/internal/minic"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// TestGasThroughSessionRun: WithGas exhaustion surfaces through
// Session.Run as an error matching llee.ErrOutOfGas (and carrying the
// *machine.GasError details), and the cycles-used at exhaustion are
// deterministic — the same budget stops at the same virtual cycle in
// every fresh System, on both targets.
func TestGasThroughSessionRun(t *testing.T) {
	m, err := compileHot(t)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 10_000
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		var firstUsed uint64
		for run := 0; run < 2; run++ {
			sys := NewSystem()
			sess, err := sys.NewSession(m, d, io.Discard, WithGas(budget))
			if err != nil {
				t.Fatal(err)
			}
			if sess.Gas() != budget {
				t.Fatalf("%s: Gas() = %d, want %d", d.Name, sess.Gas(), budget)
			}
			res, err := sess.Run(context.Background(), "main")
			if !errors.Is(err, ErrOutOfGas) {
				t.Fatalf("%s: errors.Is(ErrOutOfGas) false: %v", d.Name, err)
			}
			var ge *machine.GasError
			if !errors.As(err, &ge) {
				t.Fatalf("%s: no *machine.GasError in chain: %v", d.Name, err)
			}
			if ge.Used < budget || ge.Budget != budget {
				t.Fatalf("%s: used %d of budget %d (error says %d)", d.Name, ge.Used, budget, ge.Budget)
			}
			if res.Cycles != ge.Used {
				t.Fatalf("%s: Result.Cycles %d != GasError.Used %d", d.Name, res.Cycles, ge.Used)
			}
			if run == 0 {
				firstUsed = ge.Used
			} else if ge.Used != firstUsed {
				t.Fatalf("%s: nondeterministic exhaustion: %d vs %d cycles", d.Name, firstUsed, ge.Used)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestGasDeterministicTier2: exhaustion stays deterministic when the
// session executes profile-guided tier-2 code: from a warm cache, the
// config the serving daemon runs steady-state, and on a code-cold start,
// where the hot functions are translated at their first call. (Tier-2
// code retires different cycle counts than tier-1 by design; the
// invariant is that each configuration exhausts at ITS same cycle on
// every run.)
func TestGasDeterministicTier2(t *testing.T) {
	// Seed: a cold sampled run populates the native cache and stores the
	// guest profile tier 2 needs.
	st := NewMemStorage()
	seedGuestProfile(t, st, target.VX86)

	const budget = 10_000
	exhaust := func(st Storage, reg *telemetry.Registry, tier2 bool) (*Session, uint64) {
		t.Helper()
		m, err := compileHot(t)
		if err != nil {
			t.Fatal(err)
		}
		sys := NewSystem(WithStorage(st), WithTelemetry(reg), WithTier2(tier2))
		sess, err := sys.NewSession(m, target.VX86, io.Discard, WithGas(budget))
		if err != nil {
			t.Fatal(err)
		}
		_, err = sess.Run(context.Background(), "main")
		var ge *machine.GasError
		if !errors.As(err, &ge) {
			t.Fatalf("want *machine.GasError, got %v", err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		return sess, ge.Used
	}

	// Tier 1 first, while the cached code is still what the seed's tier-1 run
	// wrote: the WithTier2 start below replaces the hot functions' records,
	// and every later start, plain or not, installs those.
	_, tier1 := exhaust(st, telemetry.New(), false)

	var firstUsed uint64
	for run := 0; run < 2; run++ {
		reg := telemetry.New()
		sess, used := exhaust(st, reg, true)
		if heldTier2(sess) == 0 {
			t.Fatalf("run %d: no tier-2 code installed: this checked tier 1", run)
		}
		if run == 0 {
			// The first start translates the hot functions; the second
			// decodes them from the cache, tagged with the profile's stamp.
			if reg.CounterValue(codegen.MetricTier2Funcs) == 0 {
				t.Fatalf("%s = 0 on the first tier-2 start", codegen.MetricTier2Funcs)
			}
			firstUsed = used
		} else if used != firstUsed {
			t.Fatalf("tier-2 nondeterministic exhaustion: %d vs %d cycles", firstUsed, used)
		} else if n := reg.CounterValue(codegen.MetricTier2Funcs); n != 0 {
			t.Fatalf("the second tier-2 start translated %d functions at tier 2, want 0", n)
		}
	}
	// Different code: main laid out along its hot trace with classify
	// inlined (hotProg's comment). The branch peepholes are tier 1's too
	// and would not tell the two apart.
	if tier1 == firstUsed {
		t.Errorf("tier-2 exhausts at cycle %d, exactly where tier 1 does: different code was not run", tier1)
	}
	// A plain start now runs the tier-2 bodies too: cached code is code.
	if _, plain := exhaust(st, telemetry.New(), false); plain != firstUsed {
		t.Errorf("plain start over the tier-2 store exhausts at cycle %d, the WithTier2 starts at %d", plain, firstUsed)
	}

	// Online: two fresh Systems, each over its own profile-warm, code-cold
	// store, so each translates the hot functions itself, mid-run.
	var online [2]uint64
	for i := range online {
		st := NewMemStorage()
		seedCodeCold(t, st, target.VX86)
		reg := telemetry.New()
		var sess *Session
		sess, online[i] = exhaust(st, reg, true)
		if sess.CacheHit() || reg.CounterValue(codegen.MetricTier2Funcs) == 0 {
			t.Fatalf("online start %d: cacheHit=%v, %s = %d: this did not translate at tier 2 on demand",
				i, sess.CacheHit(), codegen.MetricTier2Funcs, reg.CounterValue(codegen.MetricTier2Funcs))
		}
	}
	if online[0] != online[1] {
		t.Errorf("online tier-2 nondeterministic exhaustion: %d vs %d cycles", online[0], online[1])
	}
}

// TestTenantAccounting: every Run of a WithTenant session accrues its
// cycles and a run count to the tenant — on the System snapshot API and
// as labeled telemetry — and unlabeled sessions accrue nowhere.
func TestTenantAccounting(t *testing.T) {
	m := compileTest(t)
	reg := telemetry.New()
	sys := NewSystem(WithTelemetry(reg))

	runOnce := func(tenant string) uint64 {
		var opts []SessionOption
		if tenant != "" {
			opts = append(opts, WithTenant(tenant))
		}
		sess, err := sys.NewSession(m, target.VX86, io.Discard, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Tenant() != tenant {
			t.Fatalf("Tenant() = %q, want %q", sess.Tenant(), tenant)
		}
		res, err := sess.Run(context.Background(), "main")
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}

	alice := runOnce("alice") + runOnce("alice")
	bob := runOnce("bob")
	runOnce("") // unlabeled: accounted nowhere

	if u := sys.TenantUsage("alice"); u.Runs != 2 || u.Cycles != alice {
		t.Errorf("alice usage = %+v, want {Runs:2 Cycles:%d}", u, alice)
	}
	if u := sys.TenantUsage("bob"); u.Runs != 1 || u.Cycles != bob {
		t.Errorf("bob usage = %+v, want {Runs:1 Cycles:%d}", u, bob)
	}
	if u := sys.TenantUsage(""); u.Runs != 0 || u.Cycles != 0 {
		t.Errorf("empty tenant accrued usage: %+v", u)
	}
	if all := sys.TenantUsages(); len(all) != 2 {
		t.Errorf("TenantUsages has %d entries, want 2: %v", len(all), all)
	}
	if got := reg.CounterValue(telemetry.Key(MetricTenantRuns, "tenant", "alice")); got != 2 {
		t.Errorf("alice runs counter = %d, want 2", got)
	}
	if got := reg.CounterValue(telemetry.Key(MetricTenantCycles, "tenant", "bob")); got != bob {
		t.Errorf("bob cycles counter = %d, want %d", got, bob)
	}
}

// compileHot compiles the shared hot-loop program fresh (Systems share
// canonical module state keyed by content stamp, so tests that want
// separate Systems compile their own copy).
func compileHot(t *testing.T) (*core.Module, error) {
	t.Helper()
	return minic.Compile("hot.c", hotProg)
}
