package pipeline

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/prof"
	"llva/internal/telemetry"
)

// specQueueCap bounds the speculation backlog; enqueues beyond it are
// dropped (and counted) rather than blocking the demand path.
const specQueueCap = 256

// flight is one function's translation, demanded or speculative.
// Exactly one goroutine translates; everyone else waits on done.
type flight struct {
	done        chan struct{}
	nf          *codegen.NativeFunc
	err         error
	speculative bool // started by a background worker
	consumed    atomic.Bool
}

// Speculator runs ahead-of-time JIT translation on background workers
// (paper Section 4.1: use otherwise-idle resources to hide translator
// cost). The demand path calls Demand; callees of demanded functions are
// queued via EnqueueCallees, ordered by the persisted profile's sample
// counts when available (Section 4.2). Single-flight bookkeeping
// guarantees each function is translated at most once no matter how
// demand and speculation interleave — the flights map doubles as the
// shared native-code cache when many sessions demand from one
// Speculator.
type Speculator struct {
	translate func(*core.Function) (*codegen.NativeFunc, error)
	reg       *telemetry.Registry
	tracer    *prof.Tracer // nil-safe; spans for background translations

	mu      sync.Mutex
	flights map[string]*flight
	closed  bool
	started bool // background workers spawned (first Enqueue)
	workers int
	depth   int64 // queued-but-not-started entries, mirrors the gauge
	peak    int64

	queue chan *core.Function
	wg    sync.WaitGroup
}

// NewSpeculator creates a speculation pipeline with the given worker
// pool size over translate, which produces the native code of one
// function and must be safe for concurrent use on distinct functions.
// The Speculator calls it at most once per function, from the demanding
// goroutine or a background worker alike, so whatever it decides per
// function (which translator, which profile) is decided once, before
// that function's first translation. Workers are spawned lazily on the
// first Enqueue, so a Speculator used purely as a single-flight demand
// cache costs no goroutines. A nil registry records into a private one.
func NewSpeculator(translate func(*core.Function) (*codegen.NativeFunc, error), workers int, reg *telemetry.Registry) *Speculator {
	if reg == nil {
		reg = telemetry.New()
	}
	s := &Speculator{
		translate: translate,
		reg:       reg,
		flights:   make(map[string]*flight),
		workers:   Workers(workers),
		queue:     make(chan *core.Function, specQueueCap),
	}
	reg.Gauge(MetricWorkers).Set(int64(s.workers))
	return s
}

// SetTracer attaches a span tracer; each speculative translation is
// recorded as a span on a per-worker lane of the system process (pid 0).
// Must be called before the first Enqueue; a nil tracer is fine (all
// tracer methods are nil-safe).
func (s *Speculator) SetTracer(t *prof.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

// start spawns the background workers; callers hold s.mu.
func (s *Speculator) start() {
	if s.started || s.closed {
		return
	}
	s.started = true
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
}

// Trace lane for speculation workers: worker i reports as thread
// specWorkerTIDBase+i of the system process (pid 0), keeping background
// translation visually separate from per-session guest lanes.
const specWorkerTIDBase = 100

func (s *Speculator) worker(id int) {
	defer s.wg.Done()
	h := s.reg.Histogram(MetricTranslateNS, "worker", strconv.Itoa(id))
	depth := s.reg.Gauge(MetricSpecQueueDepth)
	translated := s.reg.Counter(MetricSpecTranslated)
	s.mu.Lock()
	tracer := s.tracer // published before start(); snapshot under mu for the race detector
	s.mu.Unlock()
	tid := specWorkerTIDBase + id
	tracer.NameThread(0, tid, "spec worker "+strconv.Itoa(id))
	for f := range s.queue {
		depth.Add(-1)
		name := f.Name()
		s.mu.Lock()
		s.depth--
		if s.flights[name] != nil || s.closed {
			// Demanded (or already speculated) since it was queued, or
			// shutting down: skip.
			s.mu.Unlock()
			continue
		}
		fl := &flight{done: make(chan struct{}), speculative: true}
		s.flights[name] = fl
		s.mu.Unlock()
		end := tracer.Begin(0, tid, "pipeline", "speculate:"+name, nil)
		start := time.Now()
		nf, err := s.translate(f)
		fl.nf = nf
		if err != nil {
			fl.err = translateErr(name, err)
		}
		h.Observe(time.Since(start).Nanoseconds())
		end()
		translated.Inc()
		close(fl.done)
	}
}

// Demand translates f (registered under name) for immediate
// installation. If a translation is ready — speculative, or demanded
// earlier by another session — it is returned without translating
// (hit); if one is in flight the caller joins it instead of duplicating
// the work; otherwise the caller translates inline, excluding everyone
// else from picking the same function. The second result reports
// whether THIS call performed the translation (exactly one caller per
// name sees true, however demands interleave).
func (s *Speculator) Demand(name string, f *core.Function) (*codegen.NativeFunc, bool, error) {
	s.mu.Lock()
	fl := s.flights[name]
	if fl == nil {
		fl = &flight{done: make(chan struct{})}
		s.flights[name] = fl
		s.mu.Unlock()
		nf, err := s.translate(f)
		fl.nf = nf
		if err != nil {
			fl.err = translateErr(name, err)
		}
		s.reg.Counter(MetricDemandInline).Inc()
		close(fl.done)
		fl.consumed.Store(true)
		return fl.nf, true, fl.err
	}
	s.mu.Unlock()
	select {
	case <-fl.done:
		s.reg.Counter(MetricSpecHits).Inc()
		s.reg.Events().Emit(telemetry.EvSpecHit, name, 0)
	default:
		s.reg.Counter(MetricSpecJoins).Inc()
		<-fl.done
	}
	fl.consumed.Store(true)
	return fl.nf, false, fl.err
}

// Completed returns the successfully settled translations — demanded
// and speculative alike — without stopping the pipeline or blocking on
// in-flight work: the write-back view of the shared cache. It returns nil
// when nothing has settled.
func (s *Speculator) Completed() map[string]*codegen.NativeFunc {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out map[string]*codegen.NativeFunc
	for name, fl := range s.flights {
		select {
		case <-fl.done:
			if fl.err == nil && fl.nf != nil {
				if out == nil {
					out = make(map[string]*codegen.NativeFunc, len(s.flights))
				}
				out[name] = fl.nf
			}
		default:
		}
	}
	return out
}

// EnqueueCallees queues f's static callees for ahead-of-time
// translation, hottest-first when profile weights are available, leaving
// out those the caller reports it already holds code for.
func (s *Speculator) EnqueueCallees(f *core.Function, weights map[string]uint64, held func(name string) bool) {
	var callees []*core.Function
	for _, c := range Callees(f) {
		if !held(c.Name()) {
			callees = append(callees, c)
		}
	}
	if len(weights) > 0 {
		sort.SliceStable(callees, func(i, j int) bool {
			return weights[callees[i].Name()] > weights[callees[j].Name()]
		})
	}
	s.Enqueue(callees)
}

// Enqueue queues functions for speculative translation. Functions
// already translated, in flight, or not fitting the queue are skipped.
func (s *Speculator) Enqueue(fns []*core.Function) {
	depth := s.reg.Gauge(MetricSpecQueueDepth)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(fns) == 0 {
		return
	}
	s.start()
	for _, f := range fns {
		if s.flights[f.Name()] != nil {
			continue
		}
		select {
		case s.queue <- f:
			s.depth++
			if s.depth > s.peak {
				s.peak = s.depth
				s.reg.Gauge(MetricSpecQueuePeak).Set(s.peak)
			}
			depth.Add(1)
			s.reg.Counter(MetricSpecEnqueued).Inc()
			s.reg.Events().Emit(telemetry.EvSpecEnqueued, f.Name(), s.depth)
		default:
			s.reg.Counter(MetricSpecDropped).Inc()
		}
	}
}

// Close discards the remaining queue, stops the workers, and returns the successful
// speculative translations no Demand ever consumed — counted as waste,
// but still valid stamp-keyed translations the manager can write back
// to the offline cache (turning "wasted" speculation into a warmer next
// start). Close is idempotent; after it, Enqueue is a no-op.
func (s *Speculator) Close() map[string]*codegen.NativeFunc {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg.Gauge(MetricSpecQueueDepth).Set(0)
	out := make(map[string]*codegen.NativeFunc)
	for name, fl := range s.flights {
		<-fl.done // all settled: workers exited, demands are synchronous
		if fl.err != nil || !fl.speculative || fl.consumed.Load() {
			continue
		}
		s.reg.Counter(MetricSpecWaste).Inc()
		s.reg.Events().Emit(telemetry.EvSpecWaste, name, 0)
		out[name] = fl.nf
	}
	return out
}
