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
	"llva/internal/mem"
	"llva/internal/obj"
	"llva/internal/prof"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// System is the process-wide half of the LLEE: it owns the storage API
// binding, the telemetry registry, and — per module and target — a shared native-code cache with
// single-flight deduplication, so N concurrent sessions of the same
// module JIT each demanded function exactly once. Per-run state
// (machine, memory, runtime environment) lives in Session objects
// created with NewSession. A System is safe for concurrent use.
type System struct {
	storage Storage // nil: no OS storage API registered
	tele    *telemetry.Registry
	tier2   bool

	// sessionSeq hands out session IDs — the lane of a session's events
	// in the telemetry ring (0 is the system's own).
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
//	               telemetry registry, tier-2
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
	storage Storage
	tele    *telemetry.Registry
	tier2   bool
}

type sessionConfig struct {
	memSize        uint64
	gas            uint64
	tenant         string
	profiler       *prof.Profiler
	flightRecorder int
	reuse          bool
}

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
// machine.DefaultGas, the bound every run carries). Each Run starts a
// fresh allowance; a run that exhausts it stops at the next block
// boundary with an error matching ErrOutOfGas whose *machine.GasError
// carries the exact cycles consumed. The meter reads the deterministic
// virtual clock, never wall time, so the same program with the same
// budget stops at the same cycle on every run.
func WithGas(budget uint64) SessionOption { return func(c *sessionConfig) { c.gas = budget } }

// WithTelemetry aggregates the system's metrics and events into an
// existing registry (for multi-system harnesses such as ./benchmark).
// Without it every system gets a private registry.
func WithTelemetry(reg *telemetry.Registry) SystemOption {
	return func(c *systemConfig) { c.tele = reg }
}

// WithTier2 toggles profile-guided tier-2 translation (default off,
// system-scoped; requires the storage API). When a stamp-valid guest
// profile exists for a module, the functions it counted entries of (its
// hot functions) are translated with superblock formation and hot
// inlining instead of at tier 1: ahead of execution where the start found
// cached code for them that this profile did not produce, at their first
// call where it found none. Either way a function's translator is chosen
// before its first translation; installed code is never exchanged for a
// better one mid-run. The result is cached in the module's one code
// entry, each record tagged with the stamp of the profile that guided it:
// later starts skip straight to it, and a newer profile retranslates the
// hot functions only.
func WithTier2(on bool) SystemOption { return func(c *systemConfig) { c.tier2 = on } }

// WithProfiler attaches a guest profiler to a session's machine, which
// counts block entries (the profile StoreGuestProfile persists) and
// samples call stacks (for WriteFolded and WriteReport). One profiler may
// be shared by many sessions — it aggregates under its own lock. Both are
// deterministic: simulated instruction and cycle counts are bit-identical
// with the profiler on or off.
func WithProfiler(p *prof.Profiler) SessionOption {
	return func(c *sessionConfig) { c.profiler = p }
}

// WithReuse marks the session a candidate for pooled reuse: a session
// that installed code for every defined function of its module (after a
// Preload, from a complete cache, or once earlier sessions of the System
// demanded every function) seals its machine after setup so
// Session.Reset can later return it to a bit-identical pristine state
// instead of the caller discarding it. A session created while its
// module's table still lacks a function, and a session with a profiler
// attached, is not reusable — Resettable reports the outcome. Default
// off: plain sessions skip the seal snapshot and the per-store
// dirty-tracking branch.
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
	var cfg systemConfig
	for _, o := range opts {
		o(&cfg)
	}
	sys := &System{
		storage: cfg.storage,
		tele:    cfg.tele,
		tier2:   cfg.tier2,
		mods:    make(map[string]*moduleState),
	}
	if sys.tele == nil {
		sys.tele = telemetry.New()
	}
	return sys
}

// Telemetry returns the system's metric registry (shared by all of its
// sessions and their machines).
func (sys *System) Telemetry() *telemetry.Registry { return sys.tele }

// Storage returns the registered storage API (nil when none).
func (sys *System) Storage() Storage { return sys.storage }

// Preload completes module m's code on target d before any session runs
// (translateAhead): afterwards the state holds code for every defined
// function, so every subsequent NewSession installs the whole module up
// front and translates nothing on demand. This is what makes sessions
// poolable: only a machine with nothing left to install can be sealed for
// reuse (WithReuse). Idempotent and safe under concurrency: what a
// session's demand translated is not translated again, and a session
// created before it takes what it lacks from the table at first call.
func (sys *System) Preload(m *core.Module, d *target.Desc) error {
	ms, err := sys.state(m, d)
	if err != nil {
		return err
	}
	return ms.translateAhead(&ms.plan, true)
}

// translateAhead is translation ahead of execution (paper, Section 4.1:
// offline, or in OS idle time, "flagging it for translation and not
// actual execution"): it fills the gaps of the state's table. A gap is a
// record that is stale under p and, when missing is set, a defined
// function with no record: all of them after a cold start, the rest over a
// partial cache or after some demands, none over a complete one. The gaps
// are filled in module order on the caller's goroutine, each through code,
// the path demands take, so a function another call is translating is
// waited for, not translated twice. Then the table is written back when
// the storage API is registered. The first failed translation ends the
// call with its ErrTranslate.
func (ms *moduleState) translateAhead(p *tier2Plan, missing bool) error {
	var gaps []*core.Function
	ms.mu.Lock()
	for _, f := range ms.module.Functions {
		if f.IsDeclaration() {
			continue
		}
		if e := ms.held[f.Name()]; e.NativeFunc != nil && p.stale(e.cachedFunc) || e.NativeFunc == nil && missing {
			gaps = append(gaps, f)
		}
	}
	ms.mu.Unlock()
	if len(gaps) > 0 {
		start := time.Now()
		n := 0
		var err error
		for _, f := range gaps {
			var performed bool
			if _, performed, err = ms.code(p, f, true); err != nil {
				break
			}
			if performed {
				n++
			}
		}
		ms.sys.recordTranslate(ms.module.Name, start, n)
		if err != nil {
			return err
		}
	}
	if missing {
		ms.mu.Lock()
		ms.hit = true
		ms.mu.Unlock()
	}
	_, err := ms.writeBack()
	return err
}

// Close flushes every module's pending write-back. Existing sessions stay
// usable afterwards: their demands still translate, and their runs still
// write back. Close is idempotent; the first storage error is returned.
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
		if _, err := ms.writeBack(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// moduleState is the system-wide state of one module on one target,
// keyed by content stamp: the translator, what the persisted guest profile
// armed, and the one table of the module's code, which every session
// installs from up front and demands from at first call (table.go). It is
// created once, under the system lock, before any session's machine
// exists.
type moduleState struct {
	sys    *System
	module *core.Module // the canonical module copy every session executes
	desc   *target.Desc
	stamp  string

	tr *codegen.Translator

	// img is the prototype data image, built once per module state and
	// cloned per session: repeated NewSession skips global layout and
	// initializer encoding.
	img *image.Data

	// plan governs this state's own translations: armed from the persisted
	// guest profile when WithTier2 is on and one exists, else the zero plan.
	// Written once under the system lock, before any session exists.
	plan tier2Plan
	// defined counts the module's defined functions: a session whose
	// object holds that many has nothing left to translate on demand.
	defined int

	// mu guards the code table and what is derived from it. held is the
	// table, the one place the module's code lives: each function's entry
	// by name (table.go), decoded from the module's code entry and filled
	// by code, for demands and translation ahead of execution alike. nobj
	// is the table linked into the object NewSession installs (link), nil
	// when a record was published since. unwritten is set when the table
	// holds records writeBack has not written yet. hit is what
	// Session.CacheHit reports: the table was read from the code entry, or
	// translateAhead completed it.
	mu        sync.Mutex
	held      map[string]entry
	nobj      *codegen.NativeObject
	unwritten bool
	hit       bool
}

// tier2Plan is what a guest profile arms: the profile, the translator it
// guides, and its content stamp, which tags the records that translator
// produces so that a later profile can tell them from its own. The zero
// plan has no profile and marks nothing hot: tier 1, no tag.
type tier2Plan struct {
	profile string
	tr2     *codegen.Translator
}

// planTier2 derives the plan of guest profile art.
func (ms *moduleState) planTier2(art *prof.Artifact) (tier2Plan, error) {
	enc, err := art.Encode()
	if err != nil {
		return tier2Plan{}, err
	}
	return tier2Plan{profile: Stamp(enc), tr2: ms.tr.WithTier2(art)}, nil
}

// hot reports whether p translates name at tier 2, by p.tr2's own rule.
func (p *tier2Plan) hot(name string) bool {
	return p.tr2 != nil && p.tr2.Tier2Takes(name)
}

// stale reports whether p replaces cf ahead of execution: p marks its
// function hot and another profile, or none, produced it. Any other record
// is just code, whatever produced it.
func (p *tier2Plan) stale(cf cachedFunc) bool {
	return p.hot(cf.Name) && cf.profile != p.profile
}

// record is the cache record of nf, a translation made under p.
func (p *tier2Plan) record(nf *codegen.NativeFunc) cachedFunc {
	if p.hot(nf.Name) {
		return cachedFunc{nf, p.profile}
	}
	return cachedFunc{nf, ""}
}

// state returns (creating on first use) the shared per-module state for
// m on d. Modules are identified by content stamp, so two separately
// compiled but identical modules share one state; the first caller's
// module object becomes the canonical copy every session executes.
func (sys *System) state(m *core.Module, d *target.Desc) (*moduleState, error) {
	defer sys.span(telemetry.Event{Kind: telemetry.EvModuleLoad}, time.Now())
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
		if ms.held = ms.readObject(); ms.held != nil {
			ms.hit = true
		} else {
			sys.tele.Counter(MetricCacheMisses).Inc()
			sys.tele.Events().Emit(telemetry.Event{Kind: telemetry.EvCacheMiss, Name: ms.key("native")})
		}
		// A persisted guest profile (Section 4.2) is read, and a stale or
		// corrupt one evicted, on every start; it arms tier 2 when that is
		// on: the first run of a fresh module is always plain tier 1, and
		// the profile a session stores pays off from the next System on.
		if art, ok := ms.guestProfile(); ok && sys.tier2 {
			if ms.plan, err = ms.planTier2(art); err != nil {
				return nil, err
			}
			// Cached records of hot functions that this profile did not
			// produce are never demanded: replace them now, so that every
			// session of this state installs the same optimized code.
			if err := ms.translateAhead(&ms.plan, false); err != nil {
				return nil, err
			}
		}
	}
	img, err := image.Build(m, mem.NullGuard)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModule, err)
	}
	ms.img = img
	sys.mods[key] = ms
	return ms, nil
}

// translate is the one place a translator is picked: tier 2 when p marks f
// hot, else tier 1, for a demanded or an ahead-of-execution translation
// alike (and p.record tags the result to match). Only code calls it, once
// per function, so which code a name gets is settled before its first
// translation and never revisited. A panic in the translator is returned
// as an error: it costs the call that hit it, never the process.
func (ms *moduleState) translate(p *tier2Plan, f *core.Function) (nf *codegen.NativeFunc, err error) {
	defer func() {
		if r := recover(); r != nil {
			nf, err = nil, fmt.Errorf("translator panicked: %v", r)
		}
	}()
	if p.hot(f.Name()) {
		return p.tr2.TranslateFunction(f)
	}
	return ms.tr.TranslateFunction(f)
}

// key names one persisted artifact of this module on this target. The two
// kinds are "native" (the module's code, one record per function) and
// "guestprof" (guestprof.go).
func (ms *moduleState) key(kind string) string {
	return kind + ":" + ms.module.Name + ":" + ms.desc.Name
}

// cachedFunc is one function's record in the code entry: its code, and the
// content stamp of the guest profile that guided the translation (empty
// for tier-1 code, which no profile guides).
type cachedFunc struct {
	*codegen.NativeFunc
	profile string
}

// cachedObject is the serialized cache payload.
type cachedObject struct {
	TargetName string
	Module     string
	Funcs      []cachedFunc
}

// evictCache deletes a dead (stale or corrupt) cache blob so garbage
// does not accumulate across recompiles. Best-effort: a failed delete
// is surfaced through telemetry, never as an execution error.
func (ms *moduleState) evictCache(key string) {
	tele := ms.sys.tele
	if err := ms.sys.storage.Delete(key); err != nil {
		tele.Events().Emit(telemetry.Event{Kind: telemetry.EvCacheEvicted, Name: key + ": " + err.Error(), Value: -1})
		return
	}
	tele.Counter(MetricCacheEvictions).Inc()
	tele.Events().Emit(telemetry.Event{Kind: telemetry.EvCacheEvicted, Name: key})
}

// readStamped is the one read of a persisted artifact: the bytes stored
// under key, provided they were written against this module's stamp.
// Anything else is a miss, which every caller answers by doing the work
// online (paper, Section 4.1: the system "will operate correctly in [the
// storage API's] absence"). A storage fault is counted and costs exactly
// that; an entry written against other object code (the paper's timestamp
// check failing) is counted and evicted.
func (ms *moduleState) readStamped(key string) ([]byte, bool) {
	tele := ms.sys.tele
	data, got, ok, err := ms.sys.storage.Read(key)
	if err != nil {
		tele.Counter(MetricCacheReadErrors).Inc()
		tele.Events().Emit(telemetry.Event{Kind: telemetry.EvCacheMiss, Name: key + ": " + err.Error(), Value: -1})
		return nil, false
	}
	if !ok {
		return nil, false
	}
	if got != ms.stamp {
		tele.Counter(MetricStampMismatches).Inc()
		tele.Events().Emit(telemetry.Event{Kind: telemetry.EvStampMismatch, Name: key})
		ms.evictCache(key)
		return nil, false
	}
	return data, true
}

// readObject loads the module's code entry as a table by function name. A
// blob that passes its stamp but does not decode, or was translated for
// another target, is a miss as well: counted, evicted, and replaced by the
// next write-back. A record that decodes and could not be installed, because
// a relocation names a symbol the module does not have, is a miss of that
// function alone: counted, left out of the table, translated when called.
// The table is nil on a miss and never on a hit.
func (ms *moduleState) readObject() map[string]entry {
	tele := ms.sys.tele
	key := ms.key("native")
	data, ok := ms.readStamped(key)
	if !ok {
		return nil
	}
	co, err := decodeCachedObject(data)
	if err != nil || co.TargetName != ms.desc.Name {
		tele.Counter(MetricCacheCorrupt).Inc()
		tele.Events().Emit(telemetry.Event{Kind: telemetry.EvCacheCorrupt, Name: key})
		ms.evictCache(key)
		return nil
	}
	tele.Counter(MetricCacheHits).Inc()
	tele.Events().Emit(telemetry.Event{Kind: telemetry.EvCacheHit, Name: key})
	held := make(map[string]entry, len(co.Funcs))
records:
	for _, cf := range co.Funcs {
		// machine.resolveSym interns extern-table entries on sight; any
		// other symbol must be a function or a global of the module.
		for _, r := range cf.Relocs {
			if r.Kind != target.RelocExt && ms.module.Function(r.Sym) == nil && ms.module.Global(r.Sym) == nil {
				tele.Counter(MetricCacheCorrupt).Inc()
				tele.Events().Emit(telemetry.Event{Kind: telemetry.EvCacheCorrupt, Name: key + ": " + cf.Name})
				continue records
			}
		}
		held[cf.Name] = entry{cachedFunc: cf}
	}
	return held
}

// translateOffline is translateAhead for callers whose point is the
// cache: without the storage API there is nowhere to put the result.
func (ms *moduleState) translateOffline(p *tier2Plan) error {
	if ms.sys.storage == nil {
		return fmt.Errorf("llee: offline translation requires the storage API")
	}
	return ms.translateAhead(p, true)
}
