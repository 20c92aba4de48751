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
	tier2       bool // profile-guided retranslation (key "tier2:<name>")
	consumed    atomic.Bool
}

// specJob is one queued background translation: a speculative tier-1
// translation of a not-yet-demanded function, or a tier-2 re-translation
// of a hot, already-running one.
type specJob struct {
	f     *core.Function
	tier2 bool
}

// tier2Key is the flights-map key of a tier-2 translation; tier-1 and
// tier-2 code of one function are distinct cache entries with their own
// singleflight.
func tier2Key(name string) string { return "tier2:" + name }

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
	tr     *codegen.Translator
	reg    *telemetry.Registry
	tracer *prof.Tracer // nil-safe; spans for background translations

	mu      sync.Mutex
	flights map[string]*flight
	closed  bool
	started bool // background workers spawned (first Enqueue)
	workers int
	depth   int64 // queued-but-not-started entries, mirrors the gauge
	peak    int64

	// Background tier-up (SetTier2): tr2 is the profile-guided
	// translator, onTierUp delivers each finished tier-2 translation for
	// hot-swap installation. Both nil until a profile exists.
	tr2      *codegen.Translator
	onTierUp func(name string, nf *codegen.NativeFunc)

	queue chan specJob
	wg    sync.WaitGroup
}

// NewSpeculator creates a speculation pipeline with the given worker
// pool size over tr. Workers are spawned lazily on the first Enqueue, so
// a Speculator used purely as a single-flight demand cache costs no
// goroutines. A nil registry records into a private one.
func NewSpeculator(tr *codegen.Translator, workers int, reg *telemetry.Registry) *Speculator {
	if reg == nil {
		reg = telemetry.New()
	}
	s := &Speculator{
		tr:      tr,
		reg:     reg,
		flights: make(map[string]*flight),
		workers: Workers(workers),
		queue:   make(chan specJob, specQueueCap),
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
	for j := range s.queue {
		depth.Add(-1)
		name := j.f.Name()
		key, span := name, "speculate:"
		if j.tier2 {
			key, span = tier2Key(name), "tierup:"
		}
		s.mu.Lock()
		s.depth--
		tr, deliver := s.tr, (func(string, *codegen.NativeFunc))(nil)
		if j.tier2 {
			tr, deliver = s.tr2, s.onTierUp
		}
		if s.flights[key] != nil || s.closed || tr == nil {
			// Demanded (or already speculated) since it was queued, or
			// shutting down: skip.
			s.mu.Unlock()
			continue
		}
		fl := &flight{done: make(chan struct{}), speculative: true, tier2: j.tier2}
		s.flights[key] = fl
		s.mu.Unlock()
		end := tracer.Begin(0, tid, "pipeline", span+name, nil)
		start := time.Now()
		nf, err := tr.TranslateFunction(j.f)
		fl.nf = nf
		if err != nil {
			fl.err = translateErr(name, err)
		}
		h.Observe(time.Since(start).Nanoseconds())
		end()
		translated.Inc()
		if j.tier2 && err == nil && deliver != nil {
			// Hand the optimized code to the system for hot-swap; the
			// callback owns delivery, so a tier-2 flight is never waste.
			s.reg.Counter(MetricTierUps).Inc()
			fl.consumed.Store(true)
			deliver(name, nf)
		}
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
		nf, err := s.tr.TranslateFunction(f)
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

// Completed returns the successfully settled tier-1 translations —
// demanded and speculative alike — without stopping the pipeline or
// blocking on in-flight work. This is the write-back view of the shared
// cache; tier-2 results live under their own profile-stamped cache key
// and are reported by CompletedTier2.
func (s *Speculator) Completed() map[string]*codegen.NativeFunc {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*codegen.NativeFunc, len(s.flights))
	for name, fl := range s.flights {
		if fl.tier2 {
			continue
		}
		select {
		case <-fl.done:
			if fl.err == nil && fl.nf != nil {
				out[name] = fl.nf
			}
		default:
		}
	}
	return out
}

// CompletedTier2 returns the settled tier-2 translations, keyed by
// plain function name.
func (s *Speculator) CompletedTier2() map[string]*codegen.NativeFunc {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out map[string]*codegen.NativeFunc
	for name, fl := range s.flights {
		if !fl.tier2 {
			continue
		}
		select {
		case <-fl.done:
			if fl.err == nil && fl.nf != nil {
				if out == nil {
					out = make(map[string]*codegen.NativeFunc)
				}
				out[name[len("tier2:"):]] = fl.nf
			}
		default:
		}
	}
	return out
}

// SetTier2 arms background tier-up: hot functions passed to TierUp are
// re-translated on the worker pool with tr2 (a profile-guided
// translator) and each result is delivered through onTierUp, from the
// worker goroutine, for hot-swap installation. Passing nil disarms.
func (s *Speculator) SetTier2(tr2 *codegen.Translator, onTierUp func(name string, nf *codegen.NativeFunc)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tr2 = tr2
	s.onTierUp = onTierUp
}

// TierUp queues functions for background tier-2 re-translation.
// Singleflight holds per function across every session of the System:
// a function already tiered-up or in flight is skipped. No-op until
// SetTier2 armed the pipeline.
func (s *Speculator) TierUp(fns []*core.Function) {
	s.enqueue(fns, true)
}

// EnqueueCallees queues f's static callees for ahead-of-time
// translation, hottest-first when profile weights are available.
func (s *Speculator) EnqueueCallees(f *core.Function, weights map[string]uint64) {
	callees := Callees(f)
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
	s.enqueue(fns, false)
}

func (s *Speculator) enqueue(fns []*core.Function, tier2 bool) {
	depth := s.reg.Gauge(MetricSpecQueueDepth)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(fns) == 0 || (tier2 && s.tr2 == nil) {
		return
	}
	s.start()
	for _, f := range fns {
		key := f.Name()
		if tier2 {
			key = tier2Key(key)
		}
		if s.flights[key] != nil {
			continue
		}
		select {
		case s.queue <- specJob{f: f, tier2: tier2}:
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

// Invalidate drops any completed or in-flight translation of name (SMC
// replacement, Section 3.4): the next Demand retranslates and an
// orphaned in-flight result is discarded.
func (s *Speculator) Invalidate(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flights[name] != nil {
		delete(s.flights, name)
		s.reg.Counter(MetricSpecInvalidated).Inc()
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
		if fl.err != nil || !fl.speculative || fl.tier2 || fl.consumed.Load() {
			continue
		}
		s.reg.Counter(MetricSpecWaste).Inc()
		s.reg.Events().Emit(telemetry.EvSpecWaste, name, 0)
		out[name] = fl.nf
	}
	return out
}
