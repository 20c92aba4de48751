package llee

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/image"
	"llva/internal/llee/pipeline"
	"llva/internal/mem"
	"llva/internal/obj"
	"llva/internal/prof"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// System is the process-wide half of the LLEE: it owns the storage API
// binding, the telemetry registry, the translation worker-pool size,
// and — per module and target — a shared native-code cache with
// single-flight deduplication, so N concurrent sessions of the same
// module JIT each demanded function exactly once. Per-run state
// (machine, memory, runtime environment) lives in Session objects
// created with NewSession. A System is safe for concurrent use.
type System struct {
	storage   Storage // nil: no OS storage API registered
	tele      *telemetry.Registry
	tracer    *prof.Tracer // nil: span tracing off (all hooks no-op)
	workers   int
	speculate bool
	tier2     bool

	// sessionSeq hands out session IDs — the "pid" lane of the span
	// trace, and the correlation key across run/translate spans.
	sessionSeq atomic.Uint64

	// tenants accumulates per-tenant usage (tenant.go): every Run of a
	// WithTenant session accrues its cycles here, the unit of account
	// the serving layer's aggregate gas budgets draw against.
	tenantMu sync.Mutex
	tenants  map[string]*TenantUsage

	mu     sync.Mutex
	mods   map[string]*moduleState // stamp + ":" + target name
	closed bool
}

// Options come in two types, one per scope, so the compiler rejects a
// session setting passed to NewSystem (and vice versa) instead of the
// old shared-config design silently accepting and ignoring it:
//
//	SystemOption   process-wide policy, fixed at NewSystem — storage,
//	               telemetry registry, tracer, worker pool, speculation,
//	               tier-2
//	SessionOption  per-run state, fixed at System.NewSession — memory
//	               size, gas budget, tenant label, profiler, flight
//	               recorder
//
// System.NewSession(m, d, out, ...SessionOption) is the one blessed
// session constructor.
type SystemOption func(*systemConfig)

// SessionOption configures one Session at System.NewSession.
type SessionOption func(*sessionConfig)

type systemConfig struct {
	storage          Storage
	tele             *telemetry.Registry
	tracer           *prof.Tracer
	translateWorkers int
	speculate        bool
	tier2            bool
}

type sessionConfig struct {
	memSize        uint64
	gas            uint64
	tenant         string
	profiler       *prof.Profiler
	flightRecorder int
	reuse          bool
}

// tier2MinShare is the exclusive-sample share above which a function is
// considered hot enough for tier-2 translation.
const tier2MinShare = 0.02

// WithStorage registers the OS storage API implementation. Without it
// the system always translates online, exactly like DAISY and Crusoe
// (paper, Section 4.1).
func WithStorage(s Storage) SystemOption { return func(c *systemConfig) { c.storage = s } }

// WithMemSize sets a session's simulated address-space size.
func WithMemSize(n uint64) SessionOption { return func(c *sessionConfig) { c.memSize = n } }

// WithGas sets a session's per-run gas budget in simulated cycles (0:
// unmetered). Each Run starts a fresh allowance; a run that exhausts it
// stops at the next block boundary with an error matching ErrOutOfGas
// whose *machine.GasError carries the exact cycles consumed. The meter
// reads the deterministic virtual clock, never wall time, so the same
// program with the same budget stops at the same cycle on every run.
func WithGas(budget uint64) SessionOption { return func(c *sessionConfig) { c.gas = budget } }

// WithTelemetry aggregates the system's metrics and events into an
// existing registry (for multi-run tools such as llva-bench). Without
// it every system gets a private registry.
func WithTelemetry(reg *telemetry.Registry) SystemOption {
	return func(c *systemConfig) { c.tele = reg }
}

// WithTranslateWorkers sets the translation worker-pool size used by
// offline translation and speculative JIT (0 or unset: GOMAXPROCS).
func WithTranslateWorkers(n int) SystemOption {
	return func(c *systemConfig) { c.translateWorkers = n }
}

// WithSpeculation toggles speculative background JIT: when a function
// is translated on demand, its static callees are queued for
// ahead-of-time translation on background workers (default on).
func WithSpeculation(on bool) SystemOption { return func(c *systemConfig) { c.speculate = on } }

// WithTier2 toggles profile-guided tier-2 translation (default off,
// system-scoped; requires the storage API). When a stamp-valid guest
// profile exists for a module, its hot functions are translated with
// superblock formation and hot inlining instead of at tier 1: ahead of
// execution on cache-warm offline starts, and at their first call (or by
// speculation ahead of it) on online starts. Either way a function's
// translator is chosen before its first translation; installed code is
// never exchanged for a better one mid-run. Tier-2 code is cached under
// a profile-stamped key, so later starts skip straight to it.
func WithTier2(on bool) SystemOption { return func(c *systemConfig) { c.tier2 = on } }

// WithTracer attaches a span tracer to the system: the session
// lifecycle (load, translate, install, run, cancel, write-back) and
// the pipeline workers record begin/end spans carrying session and
// tenant IDs, exportable as Chrome trace_event JSON (Perfetto).
func WithTracer(t *prof.Tracer) SystemOption { return func(c *systemConfig) { c.tracer = t } }

// WithProfiler attaches a guest-level sampling profiler to a session's
// machine (one profiler may be shared by many sessions — it aggregates
// under its own lock). Sampling is deterministic: simulated instruction
// and cycle counts are bit-identical with the profiler on or off.
func WithProfiler(p *prof.Profiler) SessionOption {
	return func(c *sessionConfig) { c.profiler = p }
}

// WithReuse marks the session a candidate for pooled reuse: an offline
// (fully pre-translated) session seals its machine after setup so
// Session.Reset can later return it to a bit-identical pristine state
// instead of the caller discarding it. Online sessions and sessions
// with a profiler attached never become reusable — Resettable reports
// the outcome. Default off: plain sessions skip the seal snapshot and
// the per-store dirty-tracking branch.
func WithReuse(on bool) SessionOption { return func(c *sessionConfig) { c.reuse = on } }

// WithTenant labels a session with a tenant ID: carried on its trace
// spans, and every Run's cycles accrue to the tenant's usage
// (System.TenantUsage, llee.tenant.* telemetry).
func WithTenant(id string) SessionOption { return func(c *sessionConfig) { c.tenant = id } }

// WithFlightRecorder arms a session machine's trap-time flight
// recorder: an unhandled trap snapshots registers, the virtual
// backtrace, a disassembly window around the faulting PC, and the last
// events telemetry events into Session.LastCrash (zero steady-state
// cost).
func WithFlightRecorder(events int) SessionOption {
	return func(c *sessionConfig) { c.flightRecorder = events }
}

// NewSystem creates a process-wide execution-manager instance.
func NewSystem(opts ...SystemOption) *System {
	cfg := systemConfig{speculate: true}
	for _, o := range opts {
		o(&cfg)
	}
	sys := &System{
		storage:   cfg.storage,
		tele:      cfg.tele,
		tracer:    cfg.tracer,
		workers:   cfg.translateWorkers,
		speculate: cfg.speculate,
		tier2:     cfg.tier2,
		mods:      make(map[string]*moduleState),
	}
	if sys.tele == nil {
		sys.tele = telemetry.New()
	}
	sys.tracer.NameProcess(0, "llee system")
	return sys
}

// Tracer returns the attached span tracer (nil when tracing is off;
// prof.Tracer methods are nil-safe, so the result is always usable).
func (sys *System) Tracer() *prof.Tracer { return sys.tracer }

// Telemetry returns the system's metric registry (shared by all of its
// sessions and their machines).
func (sys *System) Telemetry() *telemetry.Registry { return sys.tele }

// Storage returns the registered storage API (nil when none).
func (sys *System) Storage() Storage { return sys.storage }

// Translate compiles every defined function of m for d on the system's
// worker pool and returns the native object, without executing anything
// or touching storage — the static half of llva-llc. The output is
// byte-identical to sequential translation.
func (sys *System) Translate(m *core.Module, d *target.Desc) (*codegen.NativeObject, error) {
	ms, err := sys.state(m, d)
	if err != nil {
		return nil, err
	}
	return ms.translateModule()
}

// Preload makes module m's state on target d offline before any session
// runs: the whole module is translated eagerly on the worker pool (and
// persisted when the storage API is registered), so every subsequent
// NewSession installs direct-call native code up front instead of
// JITting online. This is what makes sessions poolable — only offline
// sessions, whose installed code is immutable, can be sealed for reuse
// (WithReuse). Without Preload, the first session of a fresh module
// creates its state online and it stays online for the System's
// lifetime. Idempotent and safe under concurrency; sessions created
// before the flip stay online and remain correct.
func (sys *System) Preload(m *core.Module, d *target.Desc) error {
	ms, err := sys.state(m, d)
	if err != nil {
		return err
	}
	return ms.ensureOffline()
}

// ensureOffline flips an online module state to offline by translating
// the whole module now, and, when tier 2 is armed and no tier-2 code was
// cached, its hot functions at tier 2 as a cache-warm start would. The
// flip publishes nobj/loaded/loaded2 under ms.mu — NewSession snapshots
// them under the same lock — and persists the translations so the next
// process starts warm.
func (ms *moduleState) ensureOffline() error {
	ms.preMu.Lock()
	defer ms.preMu.Unlock()
	ms.mu.Lock()
	online := ms.online
	ms.mu.Unlock()
	if !online {
		return nil
	}
	nobj, err := ms.translateModule()
	if err != nil {
		return err
	}
	// loaded2 is written only before the state is published and below,
	// under preMu: reading it here needs no more than that.
	loaded2 := ms.loaded2
	if ms.tr2 != nil && len(loaded2) == 0 {
		if loaded2, err = ms.translateHot(ms.tr2, ms.stamp2, ms.hot); err != nil {
			return err
		}
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.sys.storage != nil {
		if err := ms.writeObject(ms.key("native"), ms.stamp, nobj.Funcs); err != nil {
			return err
		}
	}
	ms.loaded2 = loaded2
	ms.goOffline(nobj)
	return nil
}

// goOffline makes the state offline over the tier-1 code in nobj and
// whatever tier-2 code is loaded. What an offline session installs up
// front is, per module function in module order, its tier-2 code when
// there is some, else its tier-1 code: a hot function an online tier-2
// run cached only in native2 is installed like any other. The caller
// holds ms.mu, or the system lock before the state is published.
func (ms *moduleState) goOffline(nobj *codegen.NativeObject) {
	ms.loaded = funcsByName(nobj.Funcs)
	if len(ms.loaded2) > 0 {
		merged := &codegen.NativeObject{TargetName: nobj.TargetName, Module: nobj.Module}
		for _, nf := range mergeForWriteBack(ms.module, ms.loaded, ms.loaded2) {
			merged.Add(nf)
		}
		nobj = merged
	}
	ms.nobj = nobj
	ms.online = false
}

// Close flushes every module's pending write-back and stops background
// speculation (counting unconsumed speculative translations as waste —
// they are still persisted, turning them into a warmer next start).
// Existing sessions stay usable afterwards: demands translate inline.
// Close is idempotent; the first storage error is returned.
func (sys *System) Close() error {
	sys.mu.Lock()
	if sys.closed {
		sys.mu.Unlock()
		return nil
	}
	sys.closed = true
	mods := make([]*moduleState, 0, len(sys.mods))
	for _, ms := range sys.mods {
		mods = append(mods, ms)
	}
	sys.mu.Unlock()
	var first error
	for _, ms := range mods {
		ms.spec.Close()
		if err := ms.writeBack(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// moduleState is the system-wide state of one module on one target,
// keyed by content stamp: the translator, the shared single-flight
// translation cache, the decoded offline-cache contents, and what the
// persisted guest profile armed. It is created once, under the system
// lock, before any session's machine exists.
type moduleState struct {
	sys    *System
	module *core.Module // the canonical module copy every session executes
	desc   *target.Desc
	stamp  string

	tr   *codegen.Translator
	spec *pipeline.Speculator

	// img is the prototype data image, built once per module state and
	// cloned per session: repeated NewSession skips global layout and
	// initializer encoding.
	img *image.Data

	// online reports no valid cached translation existed at creation:
	// sessions JIT on demand and write translations back. online, nobj,
	// loaded and loaded2 change at most once after creation, in
	// ensureOffline under mu; NewSession, tier2For and writeBack read them
	// under mu.
	online bool
	// nobj is the object an offline session installs (goOffline); loaded
	// is the tier-1 cache contents it was built from, kept for write-back.
	nobj   *codegen.NativeObject
	loaded map[string]*codegen.NativeFunc

	// callWeights orders speculation hottest-first when a persisted
	// guest profile (Section 4.2) was loaded: function name -> inclusive
	// sample count.
	callWeights map[string]uint64

	// Tier-2 state, armed by initTier2 when WithTier2 is on and a
	// stamp-valid guest profile exists. These three are written once under
	// the system lock, before any session exists, then only read: stamp2
	// is the tier-2 cache entry's stamp (module content + profile content:
	// new object code or a different profile each invalidate it), tr2 the
	// profile-guided translator and hot the HotFuncs(tier2MinShare) set,
	// the functions translate gives to tr2.
	stamp2 string
	tr2    *codegen.Translator
	hot    map[string]bool
	// loaded2 holds tier-2 code decoded from the profile-stamped cache,
	// or translated ahead of execution by a cache-warm start or a Preload.
	loaded2 map[string]*codegen.NativeFunc

	// preMu serializes Preload's eager whole-module translation so
	// concurrent Preloads of one module do the work once.
	preMu sync.Mutex

	mu      sync.Mutex
	flushed int // settled translations persisted by the last write-back
}

// state returns (creating on first use) the shared per-module state for
// m on d. Modules are identified by content stamp, so two separately
// compiled but identical modules share one state; the first caller's
// module object becomes the canonical copy every session executes.
func (sys *System) state(m *core.Module, d *target.Desc) (*moduleState, error) {
	endLoad := sys.tracer.Begin(0, 0, "llee", "module.load",
		map[string]any{"module": m.Name, "target": d.Name})
	defer endLoad()
	enc, err := obj.Encode(m)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModule, err)
	}
	stamp := Stamp(enc)
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if sys.closed {
		return nil, errors.New("llee: system is closed")
	}
	key := stamp + ":" + d.Name
	if ms := sys.mods[key]; ms != nil {
		return ms, nil
	}
	tr, err := codegen.New(d, m)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModule, err)
	}
	tr.SetTelemetry(sys.tele)
	ms := &moduleState{sys: sys, module: m, desc: d, stamp: stamp, tr: tr, online: true}
	if sys.storage != nil {
		// The paper's translation strategy: look for a cached
		// translation, validate its stamp, and fall back to online
		// translation when any condition fails.
		key := ms.key("native")
		nobj, hit := ms.readObject(key, ms.stamp)
		if !hit {
			sys.tele.Counter(MetricCacheMisses).Inc()
			sys.tele.Events().Emit(telemetry.EvCacheMiss, key, 0)
		}
		// A persisted guest profile (Section 4.2) orders speculative JIT
		// hottest-first, and arms tier 2 when that is on: the first run of
		// a fresh module is always plain tier 1, and the profile a session
		// stores pays off from the next System on.
		if art, ok := ms.guestProfile(); ok {
			ms.callWeights = make(map[string]uint64, len(art.Funcs))
			for _, fs := range art.Funcs {
				ms.callWeights[fs.Name] = fs.Incl
			}
			if sys.tier2 {
				if err := ms.initTier2(art, hit); err != nil {
					return nil, err
				}
			}
		}
		if hit {
			ms.goOffline(nobj)
		}
	}
	img, err := image.Build(m, mem.NullGuard)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModule, err)
	}
	ms.img = img
	ms.spec = pipeline.NewSpeculator(ms.translate, sys.workers, sys.tele)
	ms.spec.SetTracer(sys.tracer)
	sys.mods[key] = ms
	return ms, nil
}

// translate is the online translation of f, demanded or speculative: at
// tier 2 when the loaded profile marks f hot, else at tier 1. The
// Speculator calls it once per function, so which code a name gets is
// settled before its first translation and never revisited.
func (ms *moduleState) translate(f *core.Function) (*codegen.NativeFunc, error) {
	if ms.hot[f.Name()] {
		return ms.tr2.TranslateFunction(f)
	}
	return ms.tr.TranslateFunction(f)
}

// tier2Plan derives what tier 2 needs from a guest profile: the
// profile-guided translator, the stamp of the tier-2 cache entry, and
// the HotFuncs(tier2MinShare) candidate set.
func (ms *moduleState) tier2Plan(art *prof.Artifact) (tr2 *codegen.Translator, stamp2 string, hot map[string]bool, err error) {
	enc, err := art.Encode()
	if err != nil {
		return nil, "", nil, err
	}
	hot = make(map[string]bool)
	for _, fs := range art.HotFuncs(tier2MinShare) {
		hot[fs.Name] = true
	}
	return ms.tr.WithTier2(art), ms.stamp + "+" + Stamp(enc), hot, nil
}

// translateHot translates the hot functions with tr2 and stores them
// under stamp2. This is tier 2 done ahead of execution: by a cache-warm
// WithTier2 start, and by idle-time optimization so that such a start
// finds the work done.
func (ms *moduleState) translateHot(tr2 *codegen.Translator, stamp2 string, hot map[string]bool) (map[string]*codegen.NativeFunc, error) {
	funcs := make(map[string]*codegen.NativeFunc, len(hot))
	for _, f := range ms.module.Functions {
		if f.IsDeclaration() || !hot[f.Name()] {
			continue
		}
		nf, err := tr2.TranslateFunction(f)
		if err != nil {
			// Tier-1 code is always a correct stand-in.
			continue
		}
		funcs[f.Name()] = nf
	}
	if len(funcs) == 0 {
		return funcs, nil
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return funcs, ms.writeObject(ms.key("native2"), stamp2, mergeForWriteBack(ms.module, funcs, nil))
}

// initTier2 arms tier 2 under the persisted guest profile art: the
// translator, the hot set, and the code. The code comes from the
// profile-stamped native2 cache when valid, or, on a warm tier-1 start
// (warm), where demand translation never runs, from translating the hot
// functions now, under the system lock, so every session of this module
// state sees the same optimized code. On an online start there is no
// code yet: translate produces it as functions are demanded. Runs once
// per module state.
func (ms *moduleState) initTier2(art *prof.Artifact, warm bool) (err error) {
	if ms.tr2, ms.stamp2, ms.hot, err = ms.tier2Plan(art); err != nil {
		return err
	}
	if nobj2, ok := ms.readObject(ms.key("native2"), ms.stamp2); ok {
		ms.loaded2 = funcsByName(nobj2.Funcs)
		return nil
	}
	if warm {
		ms.loaded2, err = ms.translateHot(ms.tr2, ms.stamp2, ms.hot)
	}
	return err
}

// tier2For returns name's tier-2 code translated ahead of execution, or
// nil: what an online start that still found the native2 entry serves
// its demands from, instead of translating it again.
func (ms *moduleState) tier2For(name string) *codegen.NativeFunc {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.loaded2[name]
}

// key names one persisted artifact of this module on this target. The
// three kinds are "native" (tier-1 code), "native2" (tier-2 code, stamped
// stamp2) and "guestprof" (guestprof.go).
func (ms *moduleState) key(kind string) string {
	return kind + ":" + ms.module.Name + ":" + ms.desc.Name
}

// cachedObject is the serialized cache payload.
type cachedObject struct {
	TargetName string
	Module     string
	Funcs      []*codegen.NativeFunc
}

// evictCache deletes a dead (stale or corrupt) cache blob so garbage
// does not accumulate across recompiles. Best-effort: a failed delete
// is surfaced through telemetry, never as an execution error.
func (ms *moduleState) evictCache(key string) {
	tele := ms.sys.tele
	if err := ms.sys.storage.Delete(key); err != nil {
		tele.Events().Emit(telemetry.EvCacheEvicted, key+": "+err.Error(), -1)
		return
	}
	tele.Counter(MetricCacheEvictions).Inc()
	tele.Events().Emit(telemetry.EvCacheEvicted, key, 0)
}

// readStamped is the one read of a persisted artifact: the bytes stored
// under key, provided they were written against stamp. Anything else is
// a miss, which every caller answers by doing the work online (paper,
// Section 4.1: the system "will operate correctly in [the storage API's]
// absence"). A storage fault is counted and costs exactly that; an entry
// written against other object code or another profile (the paper's
// timestamp check failing) is counted and evicted.
func (ms *moduleState) readStamped(key, stamp string) ([]byte, bool) {
	tele := ms.sys.tele
	data, got, ok, err := ms.sys.storage.Read(key)
	if err != nil {
		tele.Counter(MetricCacheReadErrors).Inc()
		tele.Events().Emit(telemetry.EvCacheMiss, key+": "+err.Error(), -1)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	if got != stamp {
		tele.Counter(MetricStampMismatches).Inc()
		tele.Events().Emit(telemetry.EvStampMismatch, key, 0)
		ms.evictCache(key)
		return nil, false
	}
	return data, true
}

// readObject loads the native code cached under key, for either tier. A
// blob that passes its stamp but does not decode is a miss as well:
// counted, evicted, and replaced by the next write-back.
func (ms *moduleState) readObject(key, stamp string) (*codegen.NativeObject, bool) {
	data, ok := ms.readStamped(key, stamp)
	if !ok {
		return nil, false
	}
	tele := ms.sys.tele
	co, err := decodeCachedObject(data)
	if err != nil {
		tele.Counter(MetricCacheCorrupt).Inc()
		tele.Events().Emit(telemetry.EvCacheCorrupt, key, 0)
		ms.evictCache(key)
		return nil, false
	}
	nobj := &codegen.NativeObject{TargetName: co.TargetName, Module: co.Module}
	for _, f := range co.Funcs {
		nobj.Add(f)
	}
	tele.Counter(MetricCacheHits).Inc()
	tele.Events().Emit(telemetry.EvCacheHit, key, 0)
	return nobj, true
}

func (ms *moduleState) writeObject(key, stamp string, funcs []*codegen.NativeFunc) error {
	co := cachedObject{TargetName: ms.desc.Name, Module: ms.module.Name, Funcs: funcs}
	return ms.sys.storage.Write(key, stamp, encodeCachedObject(&co))
}

func funcsByName(funcs []*codegen.NativeFunc) map[string]*codegen.NativeFunc {
	m := make(map[string]*codegen.NativeFunc, len(funcs))
	for _, nf := range funcs {
		m[nf.Name] = nf
	}
	return m
}

// writeBack persists the settled translations (demanded by any session,
// and unconsumed speculative ones) merged with the cache contents decoded
// at creation, so the next start of this module, and for tier 2 of this
// profile, skips straight to them: the hot functions, which translate
// gave to tr2, go to native2 under stamp2, the rest to native. native is
// written even when every settled function was hot, so that the next
// start finds both entries and installs all of it up front. It never
// re-reads storage, and when nothing settled since the last write-back
// (every run of an offline session) it writes and allocates nothing.
// Called after every run and at System.Close.
func (ms *moduleState) writeBack() error {
	if ms.sys.storage == nil {
		return nil
	}
	done := ms.spec.Completed()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if len(done) == ms.flushed {
		return nil
	}
	settled := len(done)
	var done2 map[string]*codegen.NativeFunc
	for name := range ms.hot {
		if nf := done[name]; nf != nil {
			if done2 == nil {
				done2 = make(map[string]*codegen.NativeFunc, len(ms.hot))
			}
			done2[name] = nf
			delete(done, name)
		}
	}
	err := ms.writeObject(ms.key("native"), ms.stamp, mergeForWriteBack(ms.module, ms.loaded, done))
	if len(done2) > 0 {
		err2 := ms.writeObject(ms.key("native2"), ms.stamp2, mergeForWriteBack(ms.module, ms.loaded2, done2))
		if err == nil {
			err = err2
		}
	}
	if err == nil {
		ms.flushed = settled
	}
	return err
}

// mergeForWriteBack merges previously cached translations with fresh
// ones (fresh wins on collision) and returns them in module function
// order — the deterministic cache layout. Names that are not module
// functions are dropped.
func mergeForWriteBack(m *core.Module, cached, fresh map[string]*codegen.NativeFunc) []*codegen.NativeFunc {
	merged := make(map[string]*codegen.NativeFunc, len(cached)+len(fresh))
	for n, f := range cached {
		merged[n] = f
	}
	for n, f := range fresh {
		merged[n] = f
	}
	funcs := make([]*codegen.NativeFunc, 0, len(merged))
	for _, f := range m.Functions {
		if nf, ok := merged[f.Name()]; ok {
			funcs = append(funcs, nf)
		}
	}
	return funcs
}

// translateModule compiles the whole module on the worker pool and
// records the batch in telemetry.
func (ms *moduleState) translateModule() (*codegen.NativeObject, error) {
	tele := ms.sys.tele
	tele.Events().Emit(telemetry.EvTranslateStart, ms.module.Name, int64(len(ms.module.Functions)))
	start := time.Now()
	nobj, err := pipeline.TranslateModule(ms.tr, ms.sys.workers, tele)
	if err != nil {
		return nil, err
	}
	ms.sys.recordTranslate(ms.module.Name, time.Since(start).Nanoseconds(), len(nobj.Funcs))
	return nobj, nil
}

// translateOffline compiles the whole module and stores it in the cache
// without executing anything — the paper's "flagging it for translation
// and not actual execution" during OS idle time.
func (ms *moduleState) translateOffline() error {
	if ms.sys.storage == nil {
		return fmt.Errorf("llee: offline translation requires the storage API")
	}
	nobj, err := ms.translateModule()
	if err != nil {
		return err
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.writeObject(ms.key("native"), ms.stamp, nobj.Funcs)
}
