package main

import "time"

// Spans are recorded by the benchmark around its calls into each
// layer's public functions; nothing inside the program is instrumented.
// prof.Tracer was the obvious candidate, but it stamps spans with its
// own clock and exposes no way to read durations back, and the ledger
// needs both — so the recorder keeps its own flat span slices (one per
// lane, so recording takes no lock) and renders the same Chrome
// trace_event format at the end.

// Span names: "<layer>.<call>", layer being the package under internal/.
const (
	spanCompile    = "minic.compile"
	spanVerify     = "core.verify"
	spanOptimize   = "passes.optimize"
	spanEncode     = "obj.encode"
	spanDecode     = "obj.decode"
	spanTier1X86   = "codegen.tier1_vx86"
	spanTier1Sparc = "codegen.tier1_vsparc"
	spanTier2X86   = "codegen.tier2_vx86"
	spanReset      = "llee.reset"
	spanRun        = "llee.run"
	spanNewSystem  = "llee.new_system"
	spanNewSession = "llee.new_session"
	spanClose      = "llee.close"
	spanRequest    = "serve.request"
)

// span is one timed call. The spans of one op share its op number; the
// op's root span has parent -1 and every layer span names the root as
// the span that caused it.
type span struct {
	name       string
	class      uint8 // op class of the owning op
	op, parent int32
	start, end int64 // ns since the recorder started
}

// recorder holds the spans and boundary counts of one traced phase. A
// nil recorder records nothing and costs nothing: the measured phase
// runs with tracing off.
type recorder struct {
	t0     time.Time
	lanes  [][]span
	counts []map[string]uint64
}

func newRecorder(lanes int) *recorder {
	r := &recorder{t0: time.Now(), lanes: make([][]span, lanes), counts: make([]map[string]uint64, lanes)}
	for i := range r.counts {
		r.counts[i] = make(map[string]uint64)
	}
	return r
}

// traceCtx is the handle an op records through: the recorder plus the
// op's identity. The zero value (tracing off) makes every method a
// no-op that never reads the clock.
type traceCtx struct {
	rec   *recorder
	lane  int
	op    int32
	root  int32
	class uint8
}

// beginOp opens the root span of one op.
func (r *recorder) beginOp(lane int, op int32, class uint8, name string) traceCtx {
	if r == nil {
		return traceCtx{}
	}
	tc := traceCtx{rec: r, lane: lane, op: op, root: -1, class: class}
	tc.root = tc.begin(name)
	return tc
}

func (tc traceCtx) on() bool { return tc.rec != nil }

// begin opens a span caused by the op's root and returns its handle.
func (tc traceCtx) begin(name string) int32 {
	if tc.rec == nil {
		return -1
	}
	l := &tc.rec.lanes[tc.lane]
	*l = append(*l, span{name: name, class: tc.class, op: tc.op, parent: tc.root,
		start: time.Since(tc.rec.t0).Nanoseconds()})
	return int32(len(*l) - 1)
}

func (tc traceCtx) end(h int32) {
	if tc.rec != nil && h >= 0 {
		tc.rec.lanes[tc.lane][h].end = time.Since(tc.rec.t0).Nanoseconds()
	}
}

// observe records a span whose duration was measured elsewhere (the
// server's own queue and exec times, reported in its response).
func (tc traceCtx) observe(name string, ns int64) {
	if tc.rec == nil {
		return
	}
	now := time.Since(tc.rec.t0).Nanoseconds()
	l := &tc.rec.lanes[tc.lane]
	*l = append(*l, span{name: name, class: tc.class, op: tc.op, parent: tc.root, start: now - ns, end: now})
}

// add accumulates a count taken at a layer boundary.
func (tc traceCtx) add(name string, n uint64) {
	if tc.rec != nil {
		tc.rec.counts[tc.lane][name] += n
	}
}

// durations groups the recorded span durations (ns) by key; key picks
// the grouping (span name, or name and class).
func (r *recorder) durations(key func(span) string) map[string][]int64 {
	out := make(map[string][]int64)
	for _, l := range r.lanes {
		for _, s := range l {
			k := key(s)
			out[k] = append(out[k], s.end-s.start)
		}
	}
	return out
}

func (r *recorder) count(name string) uint64 {
	var n uint64
	for _, c := range r.counts {
		n += c[name]
	}
	return n
}

// traceEvent is one Chrome trace_event record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeEvents renders the spans in the Chrome trace_event format: one
// pid per workload, one tid per lane; args carry the op number the
// spans of one op share and the span that caused each.
func (r *recorder) chromeEvents(pid int, process string) []traceEvent {
	evs := []traceEvent{{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": process}}}
	for lane, l := range r.lanes {
		for i, s := range l {
			evs = append(evs, traceEvent{Name: s.name, Ph: "X", PID: pid, TID: lane,
				TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Args: map[string]any{"op": s.op, "span": i, "parent": s.parent}})
		}
	}
	return evs
}
