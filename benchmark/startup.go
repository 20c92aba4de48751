package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"llva/internal/llee"
	"llva/internal/llee/pipeline"
	"llva/internal/obj"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// startup: op = what llva-run does for a short program — decode the
// bytecode, build a System over a cache directory, build a session, run
// to completion, close. Per round every (program, target) pair gets one
// cold op on an emptied directory (JIT and write-back) and then three
// warm ops on it (cache hit and decode).
//
// The sessions get sessionMem, not llva-run's default of 64 MiB. A
// fresh llva-run process gets those 64 MiB from the kernel as untouched
// pages; a process that starts thousands of sessions gets them back
// from the Go heap and clears them first, or not, as the scavenger
// happened to run: 4 ms or 7 ms for the same op from one run to the
// next, more than everything the op is meant to measure.
type startup struct {
	seed   int64
	rounds int
	names  []string // suite programs beside hello; nil: shortPrograms
	root   string   // where set-up makes dir; never removed

	reg   *telemetry.Registry
	dir   string // the pairs' cache directories live here; made by set-up, removed by close
	pairs []pair
	nb    uint64
	ni    uint64
}

// pair is one (program, target) with its bytecode and cache directory.
type pair struct {
	prog     program
	d        *target.Desc
	bytecode []byte
	dir      string
	ref      [2]guest // retired by the first cold and warm op
	seen     [2]bool
}

const (
	classCold = iota
	classWarm
)

// warmPerCold is how many cache-hit starts follow each cold one.
const warmPerCold = 3

func (s *startup) classes() []string             { return []string{"op.cold", "op.warm"} }
func (s *startup) registry() *telemetry.Registry { return s.reg }
func (s *startup) native() (uint64, uint64)      { return s.nb, s.ni }
func (s *startup) close() error                  { return os.RemoveAll(s.dir) }

func (s *startup) setup() (guest, error) {
	s.reg = telemetry.New()
	names := s.names
	if names == nil {
		names = shortPrograms
	}
	progs, err := suitePrograms(names)
	if err != nil {
		return guest{}, err
	}
	hello, err := helloProgram()
	if err != nil {
		return guest{}, err
	}
	for _, p := range append([]program{hello}, progs...) {
		m, err := frontEnd(p, traceCtx{})
		if err != nil {
			return guest{}, err
		}
		enc, err := obj.Encode(m)
		if err != nil {
			return guest{}, err
		}
		for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
			o, err := translateModule(d, m, nil, s.reg, traceCtx{}, "")
			if err != nil {
				return guest{}, err
			}
			s.nb += uint64(o.CodeSize())
			s.ni += uint64(o.NumInstrs())
			s.pairs = append(s.pairs, pair{prog: p, d: d, bytecode: enc})
		}
	}
	// Last, so that no failure above leaves it behind. The benchmark
	// removes only what it made: a directory of its own under the root,
	// which may be anyone's (/dev/shm, say).
	if err := os.MkdirAll(s.root, 0o755); err != nil {
		return guest{}, err
	}
	if s.dir, err = os.MkdirTemp(s.root, "startup-cache-*"); err != nil {
		return guest{}, err
	}
	for i := range s.pairs {
		p := &s.pairs[i]
		p.dir = filepath.Join(s.dir, p.prog.name+"-"+p.d.Name)
	}
	return guest{}, nil
}

func (s *startup) schedule() [][]round {
	rng := rand.New(rand.NewSource(s.seed))
	rounds := make([]round, s.rounds)
	for i := range rounds {
		var r round
		for _, k := range rng.Perm(len(s.pairs)) {
			r = append(r, op{class: classCold, kind: uint16(2 * k), arg: int32(k)})
			for w := 0; w < warmPerCold; w++ {
				r = append(r, op{class: classWarm, kind: uint16(2*k + 1), arg: int32(k)})
			}
		}
		rounds[i] = r
	}
	return [][]round{rounds}
}

func (s *startup) do(_ int, o op, tc traceCtx) (guest, error) {
	p := &s.pairs[o.arg]
	if o.class == classCold {
		// Emptying the directory is part of the cold op: it is the only
		// way to have one, and its cost is the same every time.
		if err := os.RemoveAll(p.dir); err != nil {
			return guest{}, err
		}
	}
	h := tc.begin(spanDecode)
	m, err := obj.Decode(p.bytecode)
	tc.end(h)
	if err != nil {
		return guest{}, err
	}
	h = tc.begin(spanNewSystem)
	st, err := llee.NewDirStorage(p.dir)
	if err != nil {
		tc.end(h)
		return guest{}, err
	}
	st.SetTelemetry(s.reg)
	sys := llee.NewSystem(llee.WithStorage(st), llee.WithTelemetry(s.reg))
	tc.end(h)
	var out bytes.Buffer
	h = tc.begin(spanNewSession)
	sess, err := sys.NewSession(m, p.d, &out, llee.WithMemSize(sessionMem))
	tc.end(h)
	if err != nil {
		return guest{}, errors.Join(err, sys.Close())
	}
	h = tc.begin(spanRun)
	res, err := sess.Run(context.Background(), "main")
	tc.end(h)
	if errors.Is(err, llee.ErrExit) {
		err = nil
	}
	h = tc.begin(spanClose)
	cerr := sys.Close()
	tc.end(h)
	if err = errors.Join(err, cerr); err != nil {
		return guest{}, err
	}
	g := guest{res.Instrs, res.Cycles}
	switch {
	case out.String() != p.prog.want:
		return g, fmt.Errorf("%s on %s: output %q, want %q", p.prog.name, p.d.Name, out.String(), p.prog.want)
	case sess.CacheHit() != (o.class == classWarm):
		return g, fmt.Errorf("%s on %s: cache hit %v on a %s", p.prog.name, p.d.Name, sess.CacheHit(), s.classes()[o.class])
	case !p.seen[o.class]:
		p.ref[o.class], p.seen[o.class] = g, true
	case g != p.ref[o.class]:
		return g, fmt.Errorf("%s on %s: retired %+v, first %s retired %+v", p.prog.name, p.d.Name, g, s.classes()[o.class], p.ref[o.class])
	}
	return g, nil
}

func (s *startup) report(l *ledger) {
	l.p50us("obj.decode_us_p50", spanDecode)
	l.p50us("llee.new_system_us_p50", spanNewSystem)
	for _, c := range []string{"cold", "warm"} {
		l.p50us("llee.new_session_"+c+"_us_p50", spanNewSession+"/op."+c)
		l.p50us("llee.first_run_"+c+"_us_p50", spanRun+"/op."+c)
		l.p50us("llee.close_"+c+"_us_p50", spanClose+"/op."+c)
		l.p50us("llee."+c+"_op_us_p50", "op."+c)
	}
	if cold := l.out["llee.cold_op_us_p50"].Value; cold > 0 {
		l.set("llee.warm_over_cold", l.out["llee.warm_op_us_p50"].Value/cold)
	}
	l.set("llee.cache_hits", l.delta(llee.MetricCacheHits))
	l.set("llee.cache_misses", l.delta(llee.MetricCacheMisses))
	l.set("llee.cas_dedup_hits", l.delta(llee.MetricCASDedups))
	l.set("llee.cas_bytes", l.total(llee.MetricCASBytes))
	if misses := l.delta(llee.MetricCacheMisses); misses > 0 {
		l.set("llee.translate_ns_per_cold_op", l.delta(llee.MetricTranslateNS+".sum")/misses)
	}
	l.set("pipeline.spec_hits", l.delta(pipeline.MetricSpecHits))
	l.set("pipeline.spec_waste", l.delta(pipeline.MetricSpecWaste))
	reportCodegen(l, l.delta)
}
