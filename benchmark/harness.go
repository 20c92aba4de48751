package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"llva/internal/telemetry"
)

// op is one scheduled operation: its class (an index into the
// workload's class names, the grouping the ledger reports by), its kind
// (ops of one kind do the same work, so their times estimate one
// quantity) and a workload-specific argument (which program, session or
// module).
type op struct {
	class uint8
	kind  uint16
	arg   int32
}

// round is one pass over a workload's fixed mix.
type round []op

// guest is what an op retired on the simulated processor.
type guest struct{ instrs, cycles uint64 }

// workload is one of the four fixed-schedule workloads. The harness
// calls setup, runs the warm-up (the schedule's first tenth) and the
// measured phase over schedule with tracing off, then replays the
// schedule's last fifth with a recorder.
type workload interface {
	// setup compiles inputs, computes references and starts whatever the
	// ops run against. Its wall time is set-up time. It returns what its
	// own verification runs retired, for a workload whose ops execute
	// nothing (translate); that counts towards guest_instrs and
	// guest_cycles.
	setup() (guest, error)
	// schedule returns the measured schedule: one slice of rounds per
	// lane, each lane driven by its own goroutine.
	schedule() [][]round
	// classes names the op classes.
	classes() []string
	// do runs one op and checks its result against the reference.
	do(lane int, o op, tc traceCtx) (guest, error)
	// registry is the telemetry registry the layers under test publish to.
	registry() *telemetry.Registry
	// native sizes the native code of the workload's distinct
	// (module, target, tier) set.
	native() (bytes, instrs uint64)
	// report adds the workload's per-layer metrics to the ledger.
	report(l *ledger)
	close() error
}

type laneStats struct {
	ops    []int64 // wall of every op, ns
	rounds []int64 // wall of every round, ns
	g      guest
	failed int
	err    error // the first failure, for the report
}

// phase is one pass over (part of) a schedule.
type phase struct {
	sched     [][]round
	lanes     []laneStats
	wall, cpu time.Duration
	windows   []allocWindow
}

// allocWindow is what the process allocated between two readings of
// runtime.MemStats and the ops completed meanwhile. A single lane takes
// a reading at the end of each round, or, when it has fewer than
// minAllocWindows rounds, after each op; with several lanes no lane's
// rounds bound the others' ops, and the whole phase is one window. The
// allocation metrics are medians over the windows: internal/mem clears
// its block map on every Session.Reset, which re-seeds the Go map, and
// refilling it then splits a table or not as the new seed has it (36 KiB
// at a time, against the 72 B an execute op allocates otherwise). A
// total over the phase follows those; a median does not.
type allocWindow struct {
	mallocs, bytes uint64
	ops            int
}

const minAllocWindows = 16

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase drives every lane of sched to completion, one goroutine per
// lane, timing each op and each round. rec is nil with tracing off.
func runPhase(w workload, sched [][]round, rec *recorder) phase {
	p := phase{sched: sched, lanes: make([]laneStats, len(sched))}
	for i, rounds := range sched {
		n := 0
		for _, r := range rounds {
			n += len(r)
		}
		p.lanes[i].ops = make([]int64, 0, n)
		p.lanes[i].rounds = make([]int64, 0, len(rounds))
	}
	names := w.classes()
	// Start from a collected heap: garbage left by set-up or the previous
	// phase must not be paid for inside this one.
	runtime.GC()
	single := len(sched) == 1
	perOp := single && len(sched[0]) < minAllocWindows
	p.windows = make([]allocWindow, 0, cap(p.lanes[0].ops))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	lastMallocs, lastBytes := ms.Mallocs, ms.TotalAlloc
	closeWindow := func(ops int) {
		runtime.ReadMemStats(&ms)
		p.windows = append(p.windows, allocWindow{ms.Mallocs - lastMallocs, ms.TotalAlloc - lastBytes, ops})
		lastMallocs, lastBytes = ms.Mallocs, ms.TotalAlloc
	}
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range sched {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			st := &p.lanes[lane]
			var seq int32
			for _, r := range sched[lane] {
				rs := time.Now()
				for _, o := range r {
					tc := rec.beginOp(lane, seq, o.class, names[o.class])
					t := time.Now()
					g, err := w.do(lane, o, tc)
					st.ops = append(st.ops, time.Since(t).Nanoseconds())
					tc.end(tc.root)
					seq++
					if perOp {
						closeWindow(1)
					}
					if err != nil {
						st.failed++
						if st.err == nil {
							st.err = fmt.Errorf("lane %d op %d (%s): %w", lane, seq-1, names[o.class], err)
						}
						continue
					}
					st.g.instrs += g.instrs
					st.g.cycles += g.cycles
				}
				st.rounds = append(st.rounds, time.Since(rs).Nanoseconds())
				if single && !perOp {
					closeWindow(len(r))
				}
			}
		}(i)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	if !single {
		closeWindow(p.attempted())
	}
	return p
}

func (p *phase) attempted() (n int) {
	for i := range p.lanes {
		n += len(p.lanes[i].ops)
	}
	return n
}

func (p *phase) failed() (n int) {
	for i := range p.lanes {
		n += p.lanes[i].failed
	}
	return n
}

func (p *phase) firstErr() error {
	for i := range p.lanes {
		if p.lanes[i].err != nil {
			return p.lanes[i].err
		}
	}
	return nil
}

func (p *phase) guest() (g guest) {
	for i := range p.lanes {
		g.instrs += p.lanes[i].g.instrs
		g.cycles += p.lanes[i].g.cycles
	}
	return g
}

// opNS returns every op's wall time.
func (p *phase) opNS() []int64 {
	var out []int64
	for i := range p.lanes {
		out = append(out, p.lanes[i].ops...)
	}
	return out
}

func (p *phase) roundNS() []int64 {
	var out []int64
	for i := range p.lanes {
		out = append(out, p.lanes[i].rounds...)
	}
	return out
}

// perOp returns, window by window, what val picks divided by the
// window's ops.
func (p *phase) perOp(val func(allocWindow) uint64) []float64 {
	var out []float64
	for _, w := range p.windows {
		out = append(out, float64(val(w))/float64(w.ops))
	}
	return out
}

func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice. xs is not modified.
func quantile[T int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	f := pos - float64(lo)
	return float64(s[lo])*(1-f) + float64(s[lo+1])*f
}

// quietDiv sets the quiet estimate: the mean of the fastest 1/quietDiv
// of the samples, at least one. On the shared reference host the
// neighbours' load only ever adds time to an op, a few milliseconds at a
// time, and how often changes by the minute; what many repeats of the
// same work cost at their fast end is what the program costs when left
// alone, and that repeats. A twentieth, not the minimum, so that no
// single sample decides it.
const quietDiv = 20

// quiet returns the quiet estimate of xs, which it sorts.
func quiet(xs []float64) float64 {
	sort.Float64s(xs)
	k := max(1, len(xs)/quietDiv)
	var s float64
	for _, x := range xs[:k] {
		s += x
	}
	return s / float64(k)
}

// quietKinds returns the quiet time, in ns, of every kind of op.
func (p *phase) quietKinds() map[uint16]float64 {
	by := make(map[uint16][]float64)
	for i, rounds := range p.sched {
		ns := p.lanes[i].ops
		for _, r := range rounds {
			for _, o := range r {
				by[o.kind] = append(by[o.kind], float64(ns[0]))
				ns = ns[1:]
			}
		}
	}
	out := make(map[uint16]float64, len(by))
	for k, xs := range by {
		out[k] = quiet(xs)
	}
	return out
}

// head and tail return the first and the last ceil(len/div) rounds of
// every lane: the warm-up runs the schedule's first tenth and the traced
// replay its last fifth, in whole rounds so that every op of the mix is
// reached and per-round ratios (cold to warm, tier 1 to tier 2) hold.
func head(sched [][]round, div int) [][]round {
	out := make([][]round, len(sched))
	for i, r := range sched {
		out[i] = r[:(len(r)+div-1)/div]
	}
	return out
}

func tail(sched [][]round, div int) [][]round {
	out := make([][]round, len(sched))
	for i, r := range sched {
		out[i] = r[len(r)-(len(r)+div-1)/div:]
	}
	return out
}

// tailNS sums the measured phase's op times over the ops tl, the tail of
// the schedule, replays: the untraced baseline of the tracing overhead.
func (p *phase) tailNS(tl [][]round) (ns int64) {
	for i := range tl {
		n := 0
		for _, r := range tl[i] {
			n += len(r)
		}
		ops := p.lanes[i].ops
		ns += sum(ops[len(ops)-n:])
	}
	return ns
}
