// Package pipeline parallelizes the LLVA translator across host cores.
// The paper's performance argument (Section 5.2, Table 2) depends on
// translation being cheap relative to execution, and Section 4.1 frames
// offline/idle-time translation as the mechanism that hides translator
// cost. TranslateModule compiles independent functions across a worker
// pool with output ordering identical to the sequential
// Translator.TranslateModule (function translation is deterministic and
// side-effect free, so the parallel result is byte-identical).
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

// ErrTranslate marks every translation failure, ahead of execution (this
// package) or on demand (llee), so callers can classify them with
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

	// Nothing records these two any more: translation is never
	// speculative. The names stay while benchmark/startup.go reads them
	// (always zero) into its pipeline.spec_hits/spec_waste ledger rows.
	MetricSpecHits  = "pipeline.spec.hits"
	MetricSpecWaste = "pipeline.spec.waste"
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
