// Package pipeline parallelizes the LLVA translator across host cores.
// The paper's performance argument (Section 5.2, Table 2) depends on
// translation being cheap relative to execution, and Section 4.1 frames
// offline/idle-time translation as the mechanism that hides translator
// cost — the same translate-ahead trick DAISY and Transmeta's Crusoe
// use. This package supplies the two halves of that trick for a
// multi-core host:
//
//   - TranslateModule compiles independent functions across a worker
//     pool with output ordering identical to the sequential
//     Translator.TranslateModule (function translation is deterministic
//     and side-effect free, so the parallel result is byte-identical);
//   - Speculator translates a demanded function's static callees ahead
//     of time on background workers with single-flight deduplication,
//     so the demand (JIT) path either finds a ready translation or
//     joins the in-flight one instead of stalling the program.
//
// Translated code is only ever *installed* on the demand path — the
// simulated processor is single-threaded — so speculation changes when
// translation work happens, never what code runs.
package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// ErrTranslate marks every translation failure surfaced by this package
// (and by the llee demand path), so callers can classify them with
// errors.Is across layers without knowing the translator's error types.
var ErrTranslate = errors.New("pipeline: translation failed")

// translateErr tags a translator failure for fn with ErrTranslate.
func translateErr(fn string, err error) error {
	return fmt.Errorf("%w: %%%s: %v", ErrTranslate, fn, err)
}

// Metric families recorded by the translation pipeline. README.md's
// Observability section documents the full schema.
const (
	MetricWorkers     = "pipeline.workers"
	MetricTranslateNS = "pipeline.translate_ns" // per-worker histogram, label worker=N

	MetricSpecQueueDepth = "pipeline.spec.queue_depth"
	MetricSpecQueuePeak  = "pipeline.spec.queue_peak"
	MetricSpecEnqueued   = "pipeline.spec.enqueued"
	MetricSpecDropped    = "pipeline.spec.dropped"
	MetricSpecTranslated = "pipeline.spec.translated"
	MetricSpecHits       = "pipeline.spec.hits"
	MetricSpecJoins      = "pipeline.spec.joins"
	MetricSpecWaste      = "pipeline.spec.waste"
	MetricDemandInline   = "pipeline.demand_inline"
)

// Workers resolves a worker-count setting: n <= 0 means one worker per
// available CPU (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// TranslateModule runs translate over every defined function of m across
// a pool of workers and returns what it produced for target d. With a
// Translator's TranslateFunction the object is byte-identical to that
// Translator's TranslateModule: functions appear in module order and each
// translation is independent of the others. translate may return a nil
// function to leave one out (a caller that already holds its code). On
// error, the first failing function in module order is reported. A nil
// registry records into a private one.
func TranslateModule(m *core.Module, d *target.Desc, translate func(*core.Function) (*codegen.NativeFunc, error), workers int, reg *telemetry.Registry) (*codegen.NativeObject, error) {
	if reg == nil {
		reg = telemetry.New()
	}
	var fns []*core.Function
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			fns = append(fns, f)
		}
	}
	obj := &codegen.NativeObject{TargetName: d.Name, Module: m.Name}
	workers = Workers(workers)
	if workers > len(fns) {
		workers = len(fns)
	}
	if len(fns) == 0 {
		return obj, nil
	}
	reg.Gauge(MetricWorkers).Set(int64(workers))

	// Work-stealing over an atomic index; results land in their module-
	// order slot so the output ordering is deterministic regardless of
	// which worker finishes first. One worker runs on the caller's
	// goroutine.
	results := make([]*codegen.NativeFunc, len(fns))
	errs := make([]error, len(fns))
	var next atomic.Int64
	work := func(w int) {
		h := reg.Histogram(MetricTranslateNS, "worker", strconv.Itoa(w))
		for {
			i := int(next.Add(1)) - 1
			if i >= len(fns) {
				return
			}
			start := time.Now()
			results[i], errs[i] = translate(fns[i])
			h.Observe(time.Since(start).Nanoseconds())
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	for i := range fns {
		if errs[i] != nil {
			return nil, translateErr(fns[i].Name(), errs[i])
		}
		if results[i] != nil {
			obj.Add(results[i])
		}
	}
	return obj, nil
}

// Callees returns f's statically-known, defined, non-intrinsic callees
// in first-use order (the call-graph edge set the Speculator walks).
func Callees(f *core.Function) []*core.Function {
	var out []*core.Function
	seen := map[*core.Function]bool{}
	for _, bb := range f.Blocks {
		for _, in := range bb.Instructions() {
			if op := in.Op(); op != core.OpCall && op != core.OpInvoke {
				continue
			}
			cf := in.CalledFunction()
			if cf == nil || cf == f || cf.IsDeclaration() || cf.IsIntrinsic() || seen[cf] {
				continue
			}
			seen[cf] = true
			out = append(out, cf)
		}
	}
	return out
}
