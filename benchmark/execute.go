package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"

	"llva/internal/core"
	"llva/internal/llee"
	"llva/internal/prof"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// execute: op = Session.Reset + Session.Run("main") on a preloaded,
// sealed llee session, on one goroutine. There is one cell per (program,
// tier) on vx86, 34 in all, and a round runs every one of them once.
//
// Both tiers are the product path. Set-up does what `llva-run -cache C
// -prof-store` followed by `llva-run -cache C -tier2` does, over one
// in-memory store: a tier-1 System preloads every module and runs it
// once under the sampling profiler, which stores the guest profile; a
// second System over the same store, built WithTier2, finds the cached
// tier-1 code and the profile and re-translates the functions llee
// calls hot (above a 2% sample share) at tier 2.
type execute struct {
	seed   int64
	rounds int
	names  []string // nil: the 17 suite programs

	reg    *telemetry.Registry
	t1, t2 *llee.System
	progs  []program
	cells  []cell // 2*i: program i at tier 1, 2*i+1: at tier 2
	nb     uint64
	ni     uint64
	llva   uint64 // LLVA instructions of the module set
	x86    uint64 // tier-1 vx86 instructions of the module set
}

// cell is one (program, tier) session, sealed in set-up.
type cell struct {
	prog int
	tier int
	out  bytes.Buffer
	sess *llee.Session
	ref  guest // retired by the cell's first run; every later run must match
	seen bool
}

func (e *execute) registry() *telemetry.Registry { return e.reg }
func (e *execute) native() (uint64, uint64)      { return e.nb, e.ni }
func (e *execute) close() error                  { return errors.Join(e.t1.Close(), e.t2.Close()) }

func (e *execute) classes() []string {
	names := make([]string, len(e.cells))
	for i, c := range e.cells {
		names[i] = fmt.Sprintf("%s.t%d", e.progs[c.prog].name, c.tier)
	}
	return names
}

func (e *execute) setup() (_ guest, err error) {
	e.reg = telemetry.New()
	store := llee.NewMemStorage()
	e.t1 = llee.NewSystem(llee.WithStorage(store), llee.WithTelemetry(e.reg))
	e.t2 = llee.NewSystem(llee.WithStorage(store), llee.WithTelemetry(e.reg), llee.WithTier2(true))
	if e.progs, err = suitePrograms(e.names); err != nil {
		return guest{}, err
	}
	// Compiles are serial: passes.Optimize is not safe for concurrent use.
	// Preload translates the module and writes it to the store, so every
	// later session of it is offline and can be sealed.
	mods := make([]*core.Module, len(e.progs))
	for i, p := range e.progs {
		if mods[i], err = frontEnd(p, traceCtx{}); err != nil {
			return guest{}, err
		}
		if err := e.t1.Preload(mods[i], target.VX86); err != nil {
			return guest{}, err
		}
	}
	// The profiling runs are independent of one another.
	err = parallel(longestFirst(e.progs), func(i int) error {
		var out bytes.Buffer
		s, err := e.t1.NewSession(mods[i], target.VX86, &out, llee.WithProfiler(prof.NewProfiler(profRate)))
		if err != nil {
			return err
		}
		if _, err := s.Run(context.Background(), "main"); err != nil && !errors.Is(err, llee.ErrExit) {
			return fmt.Errorf("%s: profiling run: %w", e.progs[i].name, err)
		}
		if out.String() != e.progs[i].want {
			return fmt.Errorf("%s: profiling run: output %q, want %q", e.progs[i].name, out.String(), e.progs[i].want)
		}
		return s.StoreGuestProfile()
	})
	if err != nil {
		return guest{}, err
	}
	e.cells = make([]cell, 2*len(e.progs))
	for i, p := range e.progs {
		for t, sys := range []*llee.System{e.t1, e.t2} {
			c := &e.cells[2*i+t]
			c.prog, c.tier = i, t+1
			if c.sess, err = sys.NewSession(mods[i], target.VX86, &c.out, llee.WithReuse(true)); err != nil {
				return guest{}, err
			}
			if !c.sess.Resettable() {
				return guest{}, fmt.Errorf("%s: tier-%d session is not resettable", p.name, c.tier)
			}
		}
		if err := e.size(mods[i], e.cells[2*i+1].sess); err != nil {
			return guest{}, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return guest{}, nil
}

// size adds a module's (vx86, tier 1) and (vx86, tier 2) objects, as
// the code generator emits them for the whole module, to the workload's
// native set. llee offers no way to read back what it installed; at
// tier 2 that is the tier-2 code of the hot functions among the tier-1
// code of the rest. The translations here go to a registry of their
// own, so the ledger's code generator counters stay llee's.
func (e *execute) size(m *core.Module, t2 *llee.Session) error {
	art, ok, err := t2.LoadGuestProfile()
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("no guest profile in the store")
	}
	scratch := telemetry.New()
	for _, a := range []*prof.Artifact{nil, art} {
		o, err := translateModule(target.VX86, m, a, scratch, traceCtx{}, "")
		if err != nil {
			return err
		}
		e.nb += uint64(o.CodeSize())
		e.ni += uint64(o.NumInstrs())
		if a == nil {
			e.x86 += uint64(o.NumInstrs())
		}
	}
	e.llva += countInstrs(m)
	return nil
}

func (e *execute) schedule() [][]round {
	rng := rand.New(rand.NewSource(e.seed))
	rounds := make([]round, e.rounds)
	for i := range rounds {
		r := make(round, len(e.cells))
		for j, c := range rng.Perm(len(e.cells)) {
			r[j] = op{class: uint8(c), kind: uint16(c), arg: int32(c)}
		}
		rounds[i] = r
	}
	return [][]round{rounds}
}

func (e *execute) do(_ int, o op, tc traceCtx) (guest, error) {
	c := &e.cells[o.arg]
	c.out.Reset()
	s := tc.begin(spanReset)
	err := c.sess.Reset(&c.out, 0, "")
	tc.end(s)
	if err != nil {
		return guest{}, err
	}
	s = tc.begin(spanRun)
	res, err := c.sess.Run(context.Background(), "main")
	tc.end(s)
	if err != nil && !errors.Is(err, llee.ErrExit) {
		return guest{}, err
	}
	g := guest{res.Instrs, res.Cycles}
	switch want := e.progs[c.prog].want; {
	case string(c.out.Bytes()) != want:
		return g, fmt.Errorf("output %q, want %q", c.out.String(), want)
	case !c.seen:
		c.ref, c.seen = g, true
	case g != c.ref:
		return g, fmt.Errorf("retired %+v, first run retired %+v", g, c.ref)
	}
	return g, nil
}

func (e *execute) report(l *ledger) {
	names := e.classes()
	var runNS, ranInstrs, instrs, cycles [3]float64
	for i := range e.cells {
		c := &e.cells[i]
		runs := l.spans[spanRun+"/"+names[i]]
		runNS[c.tier] += float64(sum(runs))
		ranInstrs[c.tier] += float64(len(runs)) * float64(c.ref.instrs)
		instrs[c.tier] += float64(c.ref.instrs)
		cycles[c.tier] += float64(c.ref.cycles)
		if c.tier == 1 {
			l.set("machine.run_ms."+e.progs[c.prog].name, quantile(runs, 0.5)/1e6)
			l.set("machine.t2_cycle_ratio."+e.progs[c.prog].name,
				float64(e.cells[i+1].ref.cycles)/float64(c.ref.cycles))
		}
	}
	for tier, t := range map[int]string{1: "t1", 2: "t2"} {
		l.set("machine.host_ns_per_guest_instr_"+t, runNS[tier]/ranInstrs[tier])
		l.set("machine.guest_cycles_"+t, cycles[tier])
		l.set("machine.guest_instrs_"+t, instrs[tier])
	}
	l.set("machine.block_builds", l.delta("machine.block_builds"))
	l.set("machine.block_chains", l.delta("machine.block_chains"))
	l.p50us("llee.reset_us_p50", spanReset)
	l.set("mem.reset_dirty_pages_per_op", l.delta(llee.MetricResetDirtyPages+".sum")/float64(l.ops))
	// The module set was translated in set-up: these are totals, not
	// deltas over the replay, which translates nothing.
	l.set("passes.instrs_after", float64(e.llva))
	l.set("target.vx86_expansion", float64(e.x86)/float64(e.llva))
	reportCodegen(l, l.total)
}
