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

// WithMemSize sets a session's simulated address-space size (0, the
// default, is mem.DefaultSize). Where the space is mapped (mem.New) the
// size bounds what a guest may touch and costs nothing until it does; on
// the make fallback every session allocates and clears all of it.
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
// execution when the start found tier-1 code cached, and at their first
// call (or by speculation ahead of it) otherwise. Either way a function's
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

// WithReuse marks the session a candidate for pooled reuse: a session
// that installed code for every defined function of its module (after a
// Preload, or from a complete cache) seals its machine after setup so
// Session.Reset can later return it to a bit-identical pristine state
// instead of the caller discarding it. Sessions with anything left to
// translate on demand and sessions with a profiler attached never become
// reusable — Resettable reports the outcome. Default off: plain sessions
// skip the seal snapshot and the per-store dirty-tracking branch.
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
	return ms.translateModule(ms.tr.TranslateFunction)
}

// Preload completes module m's code on target d before any session runs
// (translateAhead): afterwards the state holds code for every defined
// function, so every subsequent NewSession installs the whole module up
// front and translates nothing on demand. This is what makes sessions
// poolable: only a machine with nothing left to install can be sealed for
// reuse (WithReuse). Idempotent and safe under concurrency; sessions
// created before it keep demanding what they lack and remain correct.
func (sys *System) Preload(m *core.Module, d *target.Desc) error {
	ms, err := sys.state(m, d)
	if err != nil {
		return err
	}
	return ms.translateAhead()
}

// translateAhead is translation ahead of execution (paper, Section 4.1:
// offline, or in OS idle time, "flagging it for translation and not
// actual execution"). It translates exactly the defined functions the
// state holds no code for — all of them after a cold start, the rest of
// them over a partial cache, none over a complete one — on the worker
// pool, each once with the translator translate picks for it, writes them
// to the cache with what the state already held when the storage API is
// registered, and publishes them under ms.mu, where NewSession snapshots
// what it installs.
func (ms *moduleState) translateAhead() error {
	ms.preMu.Lock()
	defer ms.preMu.Unlock()
	// nobj and cacheHit change only before the state is published and
	// below, under preMu: reading them here needs no more than that.
	if len(ms.nobj.Funcs) == ms.defined && ms.cacheHit {
		return nil
	}
	nobj, err := ms.translateModule(func(f *core.Function) (*codegen.NativeFunc, error) {
		if ms.holds(f.Name()) {
			return nil, nil
		}
		return ms.translate(f)
	})
	if err != nil {
		return err
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	funcs, funcs2, err := ms.store(funcsByName(nobj.Funcs))
	if err != nil {
		return err
	}
	ms.loaded, ms.loaded2, ms.cacheHit = funcsByName(funcs), funcsByName(funcs2), true
	ms.link()
	return nil
}

// holds reports whether the state's table has code for name: sessions
// install it up front, so it needs no translating, ahead of execution or
// speculatively.
func (ms *moduleState) holds(name string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.loaded[name] != nil || ms.loaded2[name] != nil
}

// link builds the object a session installs from the state's table: per
// module function in module order, its tier-2 code when there is some,
// else its tier-1 code. A hot function that a tier-2 run cached only in
// native2 is installed like any other, and a function in neither map is
// left to its stub. The caller holds ms.mu, or the system lock before the
// state is published.
func (ms *moduleState) link() {
	ms.nobj = &codegen.NativeObject{TargetName: ms.desc.Name, Module: ms.module.Name,
		Funcs: mergeForWriteBack(ms.module, ms.loaded, ms.loaded2)}
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
// translation cache, the table of code every session installs up front,
// and what the persisted guest profile armed. It is created once, under
// the system lock, before any session's machine exists.
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

	// The table of code held ahead of execution: loaded is tier-1 code by
	// function name, decoded from the native cache entry or translated by
	// translateAhead; loaded2 (below) the same for tier 2. nobj is the two
	// linked into the object NewSession installs (link): nothing after a
	// cold start, part of the module over a partial cache, all of it over a
	// complete one or after a Preload. cacheHit reports a stamp-valid native
	// entry was read at creation, or translateAhead has run. All four
	// change after creation only in translateAhead, under mu; NewSession,
	// holds and writeBack read them under mu.
	loaded   map[string]*codegen.NativeFunc
	nobj     *codegen.NativeObject
	cacheHit bool
	// defined counts the module's defined functions: a session whose
	// object holds that many has nothing left to translate on demand.
	defined int

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
	// or translated ahead of execution by a cache-warm start or by
	// translateAhead.
	loaded2 map[string]*codegen.NativeFunc

	// preMu serializes translateAhead so concurrent Preloads of one module
	// do the work once.
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
	ms := &moduleState{sys: sys, module: m, desc: d, stamp: stamp, tr: tr}
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			ms.defined++
		}
	}
	if sys.storage != nil {
		// The paper's translation strategy: look for a cached
		// translation, validate its stamp, and fall back to online
		// translation when any condition fails.
		key := ms.key("native")
		ms.loaded, ms.cacheHit = ms.readObject(key, ms.stamp)
		if !ms.cacheHit {
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
				if err := ms.initTier2(art); err != nil {
					return nil, err
				}
			}
		}
	}
	ms.link()
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

// translate is the translation of a function the state holds no code
// for, demanded, speculative or ahead of execution: at tier 2 when the
// loaded profile marks f hot, else at tier 1. The Speculator and
// translateAhead each call it once per function, so which code a name
// gets is settled before its first translation and never revisited.
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
// under stamp2. This is tier 2 done over tier-1 code that already exists:
// by a WithTier2 start that found native cached, and by idle-time
// optimization so that such a start finds the work done.
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
// profile-stamped native2 cache when valid, or, when the native entry was
// a hit, whose functions are never demanded, from translating the hot
// functions now, under the system lock, so every session of this module
// state sees the same optimized code. After a native miss there is no
// code yet: translate produces it as functions are demanded. Runs once
// per module state.
func (ms *moduleState) initTier2(art *prof.Artifact) (err error) {
	if ms.tr2, ms.stamp2, ms.hot, err = ms.tier2Plan(art); err != nil {
		return err
	}
	var ok bool
	if ms.loaded2, ok = ms.readObject(ms.key("native2"), ms.stamp2); !ok && ms.cacheHit {
		ms.loaded2, err = ms.translateHot(ms.tr2, ms.stamp2, ms.hot)
	}
	return err
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

// readObject loads the native code cached under key, for either tier, by
// function name. A blob that passes its stamp but does not decode, or was
// translated for another target, is a miss as well: counted, evicted, and
// replaced by the next write-back.
func (ms *moduleState) readObject(key, stamp string) (map[string]*codegen.NativeFunc, bool) {
	data, ok := ms.readStamped(key, stamp)
	if !ok {
		return nil, false
	}
	tele := ms.sys.tele
	co, err := decodeCachedObject(data)
	if err != nil || co.TargetName != ms.desc.Name {
		tele.Counter(MetricCacheCorrupt).Inc()
		tele.Events().Emit(telemetry.EvCacheCorrupt, key, 0)
		ms.evictCache(key)
		return nil, false
	}
	tele.Counter(MetricCacheHits).Inc()
	tele.Events().Emit(telemetry.EvCacheHit, key, 0)
	return funcsByName(co.Funcs), true
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
// and unconsumed speculative ones) so the next start of this module, and
// for tier 2 of this profile, skips straight to them (store). It never
// re-reads storage, and when nothing settled since the last write-back
// (every run of a session that installed the whole module up front) it
// writes and allocates nothing. Called after every run and at
// System.Close.
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
	_, _, err := ms.store(done)
	if err == nil {
		ms.flushed = settled
	}
	return err
}

// store merges fresh translations into the code the state already holds
// and, when the storage API is registered, writes the result: the hot
// functions, which translate gave to tr2, to native2 under stamp2, the
// rest to native. native is written even when every fresh function was
// hot, so that the next start finds both entries and installs all of it
// up front. It returns the two merged sets. The caller holds ms.mu.
func (ms *moduleState) store(fresh map[string]*codegen.NativeFunc) (funcs, funcs2 []*codegen.NativeFunc, err error) {
	var fresh2 map[string]*codegen.NativeFunc
	for name := range ms.hot {
		if nf := fresh[name]; nf != nil {
			if fresh2 == nil {
				fresh2 = make(map[string]*codegen.NativeFunc, len(ms.hot))
			}
			fresh2[name] = nf
			delete(fresh, name)
		}
	}
	funcs = mergeForWriteBack(ms.module, ms.loaded, fresh)
	funcs2 = mergeForWriteBack(ms.module, ms.loaded2, fresh2)
	if ms.sys.storage == nil {
		return funcs, funcs2, nil
	}
	err = ms.writeObject(ms.key("native"), ms.stamp, funcs)
	if len(fresh2) > 0 {
		if err2 := ms.writeObject(ms.key("native2"), ms.stamp2, funcs2); err == nil {
			err = err2
		}
	}
	return funcs, funcs2, err
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

// translateModule runs translate over the module's defined functions on
// the worker pool and records the batch in telemetry.
func (ms *moduleState) translateModule(translate func(*core.Function) (*codegen.NativeFunc, error)) (*codegen.NativeObject, error) {
	tele := ms.sys.tele
	tele.Events().Emit(telemetry.EvTranslateStart, ms.module.Name, int64(len(ms.module.Functions)))
	start := time.Now()
	nobj, err := pipeline.TranslateModule(ms.module, ms.desc, translate, ms.sys.workers, tele)
	if err != nil {
		return nil, err
	}
	ms.sys.recordTranslate(ms.module.Name, time.Since(start).Nanoseconds(), len(nobj.Funcs))
	return nobj, nil
}

// translateOffline is translateAhead for callers whose point is the
// cache: without the storage API there is nowhere to put the result.
func (ms *moduleState) translateOffline() error {
	if ms.sys.storage == nil {
		return fmt.Errorf("llee: offline translation requires the storage API")
	}
	return ms.translateAhead()
}
