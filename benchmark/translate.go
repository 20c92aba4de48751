package main

import (
	"fmt"
	"math/rand"
	"slices"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/obj"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// translate: op = one suite program from MiniC source to native code —
// front end, optimizer, bytecode encoder, tier 1 for both targets and
// tier 2 for vx86. Nothing executes inside the measured phase.
type translate struct {
	seed   int64
	rounds int
	names  []string // nil: the 17 suite programs

	reg   *telemetry.Registry
	progs []program
	prof  []profiled
	refs  []translated // what each program's op must produce
}

// size is the extent of one translated object.
type size struct{ bytes, instrs int }

func sizeOf(o *codegen.NativeObject) size { return size{o.CodeSize(), o.NumInstrs()} }

// translated is the countable outcome of one translate op. An op is
// correct when it equals the reference set-up recorded and executed.
// Sizes, not code bytes: passes.Optimize orders some operands by map
// iteration (yacr2's bytecode has five stamps over twenty compiles),
// which moves bytes and not one of these counts.
type translated struct {
	bytecode, llva    int
	x86, sparc, x86t2 size
}

func (t *translate) classes() []string             { return []string{"op.translate"} }
func (t *translate) registry() *telemetry.Registry { return t.reg }
func (t *translate) close() error                  { return nil }

// setup returns what its verification runs retired: no translate op
// executes anything, and the workload's guest counters are these.
func (t *translate) setup() (check guest, err error) {
	t.reg = telemetry.New()
	if t.progs, err = suitePrograms(t.names); err != nil {
		return check, err
	}
	// The profiling run doubles as the check of every program's tier-1
	// vx86 code against its reference output.
	if t.prof, err = profileAll(t.progs, t.reg); err != nil {
		return check, err
	}
	t.refs = make([]translated, len(t.progs))
	for i, p := range t.progs {
		check.instrs += t.prof[i].tier1G.instrs
		check.cycles += t.prof[i].tier1G.cycles
		b, err := t.pipeline(i, traceCtx{})
		if err != nil {
			return check, fmt.Errorf("%s: %w", p.name, err)
		}
		t.refs[i] = b.counts
		if !slices.Contains(shortPrograms, p.name) {
			continue
		}
		// The other two translations are executed for the short programs.
		for _, c := range []struct {
			d *target.Desc
			o *codegen.NativeObject
		}{{target.VSPARC, b.sparc}, {target.VX86, b.x86t2}} {
			g, err := checkObject(c.d, b.mod, c.o, p, nil)
			if err != nil {
				return check, err
			}
			check.instrs += g.instrs
			check.cycles += g.cycles
		}
	}
	return check, nil
}

// built is everything one translate op produces.
type built struct {
	mod          *core.Module
	counts       translated
	sparc, x86t2 *codegen.NativeObject
}

// pipeline is the translate op proper.
func (t *translate) pipeline(i int, tc traceCtx) (b built, err error) {
	if b.mod, err = frontEnd(t.progs[i], tc); err != nil {
		return b, err
	}
	s := tc.begin(spanEncode)
	enc, err := obj.Encode(b.mod)
	tc.end(s)
	if err != nil {
		return b, err
	}
	x86, err := translateModule(target.VX86, b.mod, nil, t.reg, tc, spanTier1X86)
	if err != nil {
		return b, err
	}
	if b.sparc, err = translateModule(target.VSPARC, b.mod, nil, t.reg, tc, spanTier1Sparc); err != nil {
		return b, err
	}
	if b.x86t2, err = translateModule(target.VX86, b.mod, t.prof[i].art, t.reg, tc, spanTier2X86); err != nil {
		return b, err
	}
	b.counts = translated{len(enc), int(countInstrs(b.mod)), sizeOf(x86), sizeOf(b.sparc), sizeOf(b.x86t2)}
	if tc.on() {
		tc.add("obj.bytecode_bytes", uint64(b.counts.bytecode))
		tc.add("llva_instrs", uint64(b.counts.llva))
		tc.add("vx86_instrs", uint64(b.counts.x86.instrs))
		tc.add("vsparc_instrs", uint64(b.counts.sparc.instrs))
	}
	return b, nil
}

func (t *translate) schedule() [][]round {
	rng := rand.New(rand.NewSource(t.seed))
	rounds := make([]round, t.rounds)
	for i := range rounds {
		r := make(round, len(t.progs))
		for j, k := range rng.Perm(len(t.progs)) {
			r[j] = op{kind: uint16(k), arg: int32(k)}
		}
		rounds[i] = r
	}
	return [][]round{rounds}
}

func (t *translate) do(_ int, o op, tc traceCtx) (guest, error) {
	b, err := t.pipeline(int(o.arg), tc)
	if err != nil {
		return guest{}, err
	}
	if b.counts != t.refs[o.arg] {
		return guest{}, fmt.Errorf("%s: translated %+v, want %+v", t.progs[o.arg].name, b.counts, t.refs[o.arg])
	}
	return guest{}, nil
}

func (t *translate) native() (bytes, instrs uint64) {
	for _, r := range t.refs {
		for _, s := range []size{r.x86, r.sparc, r.x86t2} {
			bytes += uint64(s.bytes)
			instrs += uint64(s.instrs)
		}
	}
	return bytes, instrs
}

func (t *translate) report(l *ledger) {
	l.p50us("minic.compile_us_p50", spanCompile)
	l.p50us("core.verify_us_p50", spanVerify)
	l.p50us("passes.optimize_us_p50", spanOptimize)
	l.p50us("obj.encode_us_p50", spanEncode)
	l.p50us("codegen.tier1_vx86_us_p50", spanTier1X86)
	l.p50us("codegen.tier1_vsparc_us_p50", spanTier1Sparc)
	l.p50us("codegen.tier2_vx86_us_p50", spanTier2X86)
	l.set("passes.instrs_before", float64(l.rec.count("passes.instrs_before")))
	l.set("passes.instrs_after", float64(l.rec.count("passes.instrs_after")))
	l.set("obj.bytecode_bytes", float64(l.rec.count("obj.bytecode_bytes")))
	if llva := float64(l.rec.count("llva_instrs")); llva > 0 {
		l.set("target.vx86_expansion", float64(l.rec.count("vx86_instrs"))/llva)
		l.set("target.vsparc_expansion", float64(l.rec.count("vsparc_instrs"))/llva)
	}
	reportCodegen(l, l.delta, spanTier1X86, spanTier1Sparc, spanTier2X86)
}

// reportCodegen adds the translator's registry counters as read by val
// (the ledger's delta or total), and register allocation's share of the
// time spent in the named translation spans.
func reportCodegen(l *ledger, val func(string) float64, spans ...string) {
	var total int64
	for _, s := range spans {
		total += sum(l.spans[s])
	}
	if total > 0 {
		l.set("codegen.regalloc_share", val(codegen.MetricRegallocNS+".sum")/float64(total))
	}
	l.set("codegen.spills", val(codegen.MetricSpills))
	l.set("codegen.reloads", val(codegen.MetricReloads))
	l.set("codegen.tier2_funcs", val(codegen.MetricTier2Funcs))
	l.set("codegen.superblocks", val(codegen.MetricSuperblocks))
	l.set("codegen.tail_dup_instrs", val(codegen.MetricTailDupInstrs))
}
