// Command benchmark is the repository's one benchmark: four workloads
// (translate, execute, startup, serve), each a fixed, seeded schedule of
// verified ops, reported as eleven end-to-end metrics with tracing off
// and as a per-layer ledger from a traced replay of the schedule's last
// fifth. README.md in this directory explains the workloads, the
// metrics and how they interact.
//
// Usage:
//
//	go run ./benchmark [-seed N] [-seconds S] [-workload NAME] [-trace 0|1] [-trace-out FILE]
//	go run ./benchmark -compare A.json B.json
//
// The result document goes to standard output as indented JSON. With
// -workload, one more line follows it: the one-object summary the
// benchmark driver reads (correct, attempted, failed and the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// referenceSeconds is the run length the frozen round counts were
// calibrated for on the 2-core reference host; -seconds scales them.
const referenceSeconds = 15

// frozenRounds are the measured rounds per workload at referenceSeconds
// (serve: 100-op blocks over all clients). They are constants, not the
// outcome of a timer, so that every exact counter repeats bit for bit.
//
// execute's five rounds take twice referenceSeconds. Its ops run for up
// to a second and a half, too long to fall between two of the host's
// bursts, so a cell's quiet time is the least of its samples, and only
// more samples, seconds apart, steady that (the README has the spreads).
var frozenRounds = map[string]int{
	"translate": 78,
	"execute":   5,
	"startup":   39,
	"serve":     2100,
}

// workloadWhy is each workload's one-line reason, with its frozen op
// count at referenceSeconds.
var workloadWhy = map[string]string{
	"translate": "MiniC source to native code, 17 programs x 78 rounds = 1,326 ops: front end, optimizer and both code generators do all the work, machine and serve none",
	"execute":   "Session.Reset + Session.Run on sealed vx86 llee sessions, 17 programs x {tier 1, tier 2} x 5 rounds = 170 ops: machine, mem and rt do all the work, the translators none",
	"startup":   "llva-run's life over a CAS cache directory, 10 (program, target) pairs x (1 cold + 3 warm) x 39 rounds = 1,560 ops: llee session construction, codec and cache dominate",
	"serve":     "closed loop of nproc clients against an in-process llva-serve, 2,100 blocks of 98 light runs + 1 heavy + 1 re-load = 210,000 ops: HTTP, JSON, admission and session reset dominate",
}

// workloadOrder is the order a run of all four takes them in. translate
// goes last: every compile leaves its CSE keys behind for good (see the
// README's findings), and the workloads after it would run, and
// collect, on top of half a gigabyte of them.
var workloadOrder = []string{"execute", "startup", "serve", "translate"}

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  int
	trace    bool
	cacheDir string
}

func (c config) rounds(name string) int {
	return max(1, frozenRounds[name]*c.seconds/referenceSeconds)
}

// newWorkload returns an instance of a workload of workloadOrder.
func newWorkload(name string, c config) workload {
	switch name {
	case "translate":
		return &translate{seed: c.seed, rounds: c.rounds(name)}
	case "execute":
		return &execute{seed: c.seed, rounds: c.rounds(name)}
	case "startup":
		return &startup{seed: c.seed, rounds: c.rounds(name), root: c.cacheDir}
	}
	return &serveLoad{seed: c.seed, blocks: c.rounds(name)}
}

// result is one workload's part of the document.
type result struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Samples   map[string]int    `json:"samples"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// document is what a run prints and what -compare reads.
type document struct {
	Header    header   `json:"header"`
	Workloads []result `json:"workloads"`
}

// registryValues flattens a registry into one map: counters and gauges
// under their names, histogram sums under "<name>.sum".
func registryValues(w workload) map[string]int64 {
	snap := w.registry().Snapshot()
	out := make(map[string]int64)
	for k, v := range snap.Counters {
		out[k] = int64(v)
	}
	for k, v := range snap.Gauges {
		out[k] = v
	}
	for k, h := range snap.Histograms {
		out[k+".sum"] = h.Sum
	}
	return out
}

// The warm-up is the first tenth of the measured schedule and the last
// part of set-up: it finishes whatever a first use sets up lazily. In
// setup_s it counts at its ops' quiet times (see results), which makes
// that seconds of the workload's own steady work, not milliseconds of
// allocator luck. The traced replay is the last fifth.
const (
	warmupDiv = 10
	replayDiv = 5
)

// runWorkload takes one workload through set-up with its warm-up, the
// measured phase and, with tracing on, the traced replay.
func runWorkload(name string, w workload, trace bool, traces *[]*recorder) (res result, err error) {
	res = result{Name: name, Why: workloadWhy[name]}
	start := time.Now()
	g, err := w.setup()
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", name, err)
	}
	defer func() { err = errors.Join(err, w.close()) }()
	sched := w.schedule()
	setup := setupWall{proper: time.Since(start)}
	warmSched := head(sched, warmupDiv)
	warm := runPhase(w, warmSched, nil)
	if err := warm.firstErr(); err != nil {
		return res, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	setup.warmup = warm.wall

	p := runPhase(w, sched, nil)
	pg := p.guest()
	g.instrs += pg.instrs
	g.cycles += pg.cycles
	nb, ni := w.native()
	res.Attempted, res.Failed = p.attempted(), p.failed()
	res.Correct = res.Failed == 0
	if e := p.firstErr(); e != nil {
		res.FirstErr = e.Error()
	}
	res.Samples = map[string]int{"op": res.Attempted, "round": len(p.roundNS())}
	var measured map[string]metric
	res.EndToEnd, measured = results(setup, warmSched, &p, g, nb, ni)
	if !trace {
		return res, nil
	}

	tl := tail(sched, replayDiv)
	rec := newRecorder(len(sched))
	before := registryValues(w)
	tp := runPhase(w, tl, rec)
	*traces = append(*traces, rec)
	l := &ledger{out: make(map[string]metric), rec: rec, ops: tp.attempted(), before: before, after: registryValues(w)}
	classes := w.classes()
	l.spans = rec.durations(func(s span) string { return s.name })
	for k, v := range rec.durations(func(s span) string { return s.name + "/" + classes[s.class] }) {
		l.spans[k] = v
	}
	w.report(l)
	l.set("trace.overhead_pct", 100*(float64(sum(tp.opNS()))/float64(p.tailNS(tl))-1))
	for _, d := range asMeasured {
		l.set(d.name, measured[d.name].Value)
	}
	res.PerLayer = make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		res.PerLayer[d.name] = metric{Value: l.out[d.name].Value, Unit: d.unit}
	}
	if tp.failed() > 0 {
		res.Correct = false
		res.Failed += tp.failed()
		res.Attempted += tp.attempted()
		if res.FirstErr == "" {
			res.FirstErr = tp.firstErr().Error()
		}
	}
	return res, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "schedule seed: orders every round's ops; totals do not depend on it")
	seconds := fs.Int("seconds", referenceSeconds, "intended length of a measured phase on the reference host; scales the frozen round counts")
	only := fs.String("workload", "", "run one workload (translate, execute, startup or serve) and end with the driver's one-line summary")
	trace := fs.Int("trace", 1, "1: replay the last fifth of the schedule with spans recorded and report the per-layer ledger; 0: end-to-end metrics only")
	traceOut := fs.String("trace-out", "", "write the replay's spans as Chrome trace_event JSON to `FILE`")
	cacheDir := fs.String("cache-dir", ".bench_build", "existing or new `directory` under which startup makes (and afterwards removes) its own cache directory")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if *seconds < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: benchmark [-seed N] [-seconds S] [-workload NAME] [-trace 0|1] [-trace-out FILE]")
		return 2
	}
	c := config{seed: *seed, seconds: *seconds, trace: *trace != 0, cacheDir: *cacheDir}
	names := workloadOrder
	if *only != "" {
		if frozenRounds[*only] == 0 {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %v)\n", *only, workloadOrder)
			return 2
		}
		names = []string{*only}
	}
	doc := document{Header: newHeader(c)}
	var traces []*recorder
	ok := true
	for _, name := range names {
		res, err := runWorkload(name, newWorkload(name, c), c.trace, &traces)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		ok = ok && res.Correct
		doc.Workloads = append(doc.Workloads, res)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *traceOut != "" {
		if err := writeTraces(*traceOut, names, traces); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *only != "" {
		res := doc.Workloads[0]
		metrics := res.PerLayer
		if !c.trace {
			metrics = res.EndToEnd
		}
		line, err := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
		})
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		return 1
	}
	return 0
}

func writeTraces(path string, names []string, traces []*recorder) error {
	var evs []traceEvent
	for i, rec := range traces {
		evs = append(evs, rec.chromeEvents(i+1, names[i])...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	return errors.Join(err, f.Close())
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
