package llee

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/machine"
	"llva/internal/mem"
	"llva/internal/prof"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// Session is one execution of a module on one simulated processor,
// created by System.NewSession. Sessions of the same module share the
// system's translation cache — a demanded function is JIT-compiled once
// no matter how many sessions demand it — but each session owns its
// machine, memory image, runtime environment, and SMC redirect state,
// so concurrent sessions never observe each other's execution. A
// Session's methods must not be called concurrently with each other;
// different Sessions are independent.
type Session struct {
	sys *System
	ms  *moduleState
	env *rt.Env
	mc  *machine.Machine

	// id is the session's process-unique ID — the "pid" lane of the
	// span trace; tenant is the owning tenant's label, carried on
	// every span; profiler is the attached guest profiler (nil: off).
	id       uint64
	tenant   string
	profiler *prof.Profiler

	// redirect implements llva.smc.replace for this session only:
	// function -> replacement body. Redirected demands translate
	// privately, bypassing the shared cache, so one session's
	// self-modification never leaks into another's code. Allocated on
	// the first replace — nil-map reads keep the common (no-SMC) session
	// from paying for it.
	redirect map[string]string
	// storageAPIAddr records the address registered via
	// llva.storage.register (exposed to trap handlers/tools).
	storageAPIAddr uint64
	cacheHit       bool
	// reusable is set when the session was created WithReuse, installed
	// the whole module up front and sealed its machine: Reset can then
	// restore it to a state bit-identical to a fresh session's. An SMC
	// redirect acquired at run time disqualifies it (Resettable).
	reusable bool

	runMu sync.Mutex
}

// Result describes one Session.Run: the entry function's return value
// and what the run cost on the simulated processor and the wall clock.
type Result struct {
	Value  uint64        // the entry function's return value
	Instrs uint64        // simulated instructions retired by this run
	Cycles uint64        // simulated cycles consumed by this run
	Wall   time.Duration // host wall-clock time of this run
}

// NewSession prepares an execution of module m on target d, writing
// program output to out. Session-scoped settings (WithMemSize, WithGas,
// WithTenant, WithProfiler, WithFlightRecorder) are SessionOptions;
// system-scoped policy was fixed by NewSystem — the two option types
// make passing one at the wrong scope a compile error. The first
// session of a module pays for cache validation and loading the stored
// profile; later sessions of the same module reuse that work.
func (sys *System) NewSession(m *core.Module, d *target.Desc, out io.Writer, opts ...SessionOption) (*Session, error) {
	cfg := sessionConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	id := sys.sessionSeq.Add(1)
	if sys.tracer != nil {
		// Span labels and args are built only when a tracer is attached;
		// the default (untraced) session pays no formatting allocations.
		label := fmt.Sprintf("session %d", id)
		if cfg.tenant != "" {
			label += " (" + cfg.tenant + ")"
		}
		sys.tracer.NameProcess(int(id), label)
		endNew := sys.tracer.Begin(int(id), 0, "llee", "session.new",
			map[string]any{"session": id, "tenant": cfg.tenant, "module": m.Name})
		defer endNew()
	}
	ms, err := sys.state(m, d)
	if err != nil {
		return nil, err
	}
	// The canonical module copy is what every session executes — never
	// the caller's m, which may be a structurally identical duplicate.
	// The data image was built once with the module state; each session
	// clones the prototype instead of re-encoding every global initializer.
	env := rt.NewEnv(mem.New(cfg.memSize, ms.module.LittleEndian), out)
	mc, err := machine.NewWithImage(d, ms.module, env, ms.img.Clone())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModule, err)
	}
	s := &Session{
		sys:      sys,
		ms:       ms,
		env:      env,
		mc:       mc,
		id:       id,
		tenant:   cfg.tenant,
		profiler: cfg.profiler,
	}
	mc.SetTelemetry(sys.tele)
	if cfg.gas != 0 {
		mc.SetGas(cfg.gas)
	}
	if cfg.profiler != nil {
		mc.SetProfiler(cfg.profiler)
	}
	if cfg.flightRecorder > 0 {
		mc.EnableFlightRecorder(cfg.flightRecorder)
	}
	mc.OnJIT = s.onJIT
	mc.OnIntrinsic = s.onIntrinsic
	// Other sessions and Preload can publish more code concurrently with
	// session creation: link the table (when it changed since the last
	// link) and snapshot the object under the state lock. Whatever it
	// holds is installed now; a function it lacks is reached through its
	// stub and demanded from the table on its first call.
	ms.mu.Lock()
	if ms.nobj == nil {
		ms.link()
	}
	nobj := ms.nobj
	s.cacheHit = ms.hit
	ms.mu.Unlock()
	if err := mc.LoadObject(nobj); err != nil {
		return nil, err
	}
	if cfg.reuse && cfg.profiler == nil && len(nobj.Funcs) == ms.defined {
		// All code is installed and nothing is left to translate: seal the
		// pristine state so Reset restores exactly this machine.
		if err := mc.Seal(); err != nil {
			return nil, err
		}
		s.reusable = true
	}
	return s, nil
}

// ErrNotReusable reports a Reset on a session that cannot be reused: it
// was not created WithReuse with the whole module's code to install, or
// it acquired an SMC redirect at run time.
var ErrNotReusable = errors.New("llee: session is not reusable")

// Resettable reports whether Reset would succeed: the session was
// sealed for reuse and no run self-modified its code. A serving layer
// checks this before pooling a finished session; false means discard.
func (s *Session) Resettable() bool {
	return s.reusable && len(s.redirect) == 0
}

// Reset returns a finished reusable session to its pristine state so
// its next Run is bit-identical — value, instruction and cycle counts,
// and output — to a fresh session's, at a cost proportional to the
// memory the previous run dirtied rather than to total memory size.
// Guest memory, registers, privilege, the deterministic RNG and the
// runtime statistics all roll back; installed native code, the
// predecoded block cache and the data-image prototype's work are kept.
// The session is re-armed for out/gas/tenant (a pool hands one session
// to many tenants — nothing of the prior tenant's run survives to be
// observed). Fails with ErrNotReusable when Resettable is false.
func (s *Session) Reset(out io.Writer, gas uint64, tenant string) error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if !s.Resettable() {
		return ErrNotReusable
	}
	dirty := s.mc.Reset()
	s.env.Reset(out)
	s.mc.SetGas(gas)
	s.tenant = tenant
	s.storageAPIAddr = 0
	s.sys.tele.Counter(MetricSessionResets).Inc()
	s.sys.tele.Histogram(MetricResetDirtyPages).Observe(int64(dirty))
	return nil
}

// Run executes the entry function until it returns, the program exits,
// an unhandled trap fires, or ctx is done. Cancellation is honored at
// basic-block boundaries: an uncancellable context costs one nil
// comparison per block, so cycle counts are bit-identical with and
// without a context. Errors classify under the package taxonomy
// (ErrCanceled, ErrTranslate, ErrBadModule, ErrExit, *ErrTrap) via
// errors.Is/As. New translations are written back to the offline cache
// before returning when the storage API is available.
func (s *Session) Run(ctx context.Context, entry string, args ...uint64) (Result, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if f := s.ms.module.Function(entry); f == nil || f.IsDeclaration() {
		return Result{}, fmt.Errorf("%w: no entry function %%%s", ErrBadModule, entry)
	}
	instrs0, cycles0 := s.mc.Stats.Instrs, s.mc.Stats.Cycles
	endRun := s.sys.tracer.Begin(int(s.id), 0, "guest", "run:"+entry, s.spanArgs())
	start := time.Now()
	v, err := s.mc.RunContext(ctx, entry, args...)
	endRun()
	res := Result{
		Value:  v,
		Instrs: s.mc.Stats.Instrs - instrs0,
		Cycles: s.mc.Stats.Cycles - cycles0,
		Wall:   time.Since(start),
	}
	err = mapRunError(err)
	if errors.Is(err, ErrCanceled) {
		s.sys.tracer.Instant(int(s.id), 0, "guest", "cancel:"+entry, s.spanArgs())
	}
	// The run is charged to its tenant however it ended: canceled,
	// trapped, and out-of-gas runs consumed real simulated time.
	s.sys.accountRun(s.tenant, res.Cycles)
	endWB := s.sys.tracer.Begin(int(s.id), 0, "llee", "cache.writeback", s.spanArgs())
	werr := s.ms.writeBack()
	endWB()
	if werr != nil && err == nil {
		err = werr
	}
	return res, err
}

// spanArgs is the correlation payload every session span carries (nil
// when tracing is off — spans are no-ops then, so the map would only be
// per-run allocation noise).
func (s *Session) spanArgs() map[string]any {
	if s.sys.tracer == nil {
		return nil
	}
	a := map[string]any{"session": s.id}
	if s.tenant != "" {
		a["tenant"] = s.tenant
	}
	return a
}

// mapRunError lifts machine-level failures into the session taxonomy.
// Exit and translation errors already carry their sentinels from the
// owning layer and pass through unchanged.
func mapRunError(err error) error {
	if err == nil {
		return nil
	}
	var te *machine.TrapError
	if errors.As(err, &te) {
		return &ErrTrap{Num: te.Num, PC: te.PC, Cause: err}
	}
	var ce *machine.CancelError
	var ge *machine.GasError
	if errors.As(err, &ce) || errors.As(err, &ge) {
		return fmt.Errorf("llee: %w", err)
	}
	return err
}

// Gas returns the configured per-run gas budget (0: machine.DefaultGas).
func (s *Session) Gas() uint64 { return s.mc.Gas() }

// Machine exposes the underlying simulated processor (for statistics).
func (s *Session) Machine() *machine.Machine { return s.mc }

// Env exposes the session's runtime environment.
func (s *Session) Env() *rt.Env { return s.env }

// Module returns the canonical module this session executes (the
// system's copy, which may be a structurally identical duplicate of the
// one passed to NewSession).
func (s *Session) Module() *core.Module { return s.ms.module }

// System returns the owning system.
func (s *Session) System() *System { return s.sys }

// CacheHit reports whether this session's module code was translated
// ahead of execution rather than online: read from a valid code entry
// through the storage API, or completed by Preload, TranslateOffline or
// IdleTimeOptimize on this System. Code that earlier sessions demanded
// does not count.
func (s *Session) CacheHit() bool { return s.cacheHit }

// TranslateOffline completes the module's code in the offline cache
// without executing anything (idle-time translation, Section 4.1).
func (s *Session) TranslateOffline() error { return s.ms.translateOffline(&s.ms.plan) }

// IdleTimeOptimize completes the module's code in the offline cache with,
// when a guest profile is stored (StoreGuestProfile), its hot functions
// translated at tier 2 under that profile, so a later WithTier2 start
// translates nothing (Section 4.2). What it translated at tier 2 adds to
// the System's codegen.tier2_funcs and codegen.superblocks counters.
func (s *Session) IdleTimeOptimize() error { return s.ms.idleTimeOptimize() }

// onJIT translates one function on demand (honoring SMC redirects) and
// installs its code in this session's machine: a function NewSession had
// no code for, at its first call, or one llva.smc.replace invalidated,
// at its next. The unredirected path goes through the module's code
// table (moduleState.code): the demand takes the record it finds, waits
// for the translation in flight, or translates on this goroutine — each
// function is translated once per system, at the tier
// moduleState.translate picks for it, however many sessions demand it,
// and a translator panic fails this call with ErrTranslate. Installation
// always happens here, on the machine's goroutine, and only
// llva.smc.replace ever makes a name demand code a second time.
func (s *Session) onJIT(name string) (uint64, error) {
	body := name
	if r, ok := s.redirect[name]; ok {
		body = r
	}
	f := s.ms.module.Function(body)
	if f == nil || f.IsDeclaration() {
		return 0, fmt.Errorf("%w: no body for %%%s", ErrBadModule, body)
	}
	tele := s.sys.tele
	tele.Events().Emit(telemetry.EvJITRequest, name, 0)
	tele.Events().Emit(telemetry.EvTranslateStart, body, 0)
	endTr := s.sys.tracer.Begin(int(s.id), 0, "llee", "translate:"+name, s.spanArgs())
	start := time.Now()
	var nf *codegen.NativeFunc
	var err error
	performed := true
	if body == name {
		nf, performed, err = s.ms.code(&s.ms.plan, f, false)
	} else {
		// SMC-redirected bodies bypass the code table: their
		// translation is keyed by the callee's name but built from
		// another body, and must stay private to this session.
		nf, err = s.ms.tr.TranslateFunction(f)
	}
	endTr()
	if err != nil {
		return 0, err
	}
	// The demand-path histogram records the stall the program actually
	// saw: near zero when another session had translated the function,
	// the whole translation (or the wait for it) otherwise.
	// The translation counter moves only for the demand that performed
	// the work, so N sessions of one module count each function once.
	ns := time.Since(start).Nanoseconds()
	tele.Histogram(MetricTranslateNS).Observe(ns)
	tele.Events().Emit(telemetry.EvTranslateEnd, name, ns)
	if performed {
		tele.Counter(MetricTranslations).Inc()
	}
	if body != name {
		// Install the replacement body under the callee's name. Only the
		// private redirect translation is renamed: shared translations
		// are immutable once published.
		nf.Name = name
	}
	endIn := s.sys.tracer.Begin(int(s.id), 0, "llee", "install:"+name, s.spanArgs())
	addr, err := s.mc.InstallCode(nf)
	endIn()
	return addr, err
}

// onIntrinsic handles the intrinsics the machine delegates to the
// execution manager: self-modifying code and the storage API registration.
func (s *Session) onIntrinsic(name string, args []uint64) (uint64, error) {
	switch name {
	case "llva.smc.replace":
		if len(args) < 2 {
			return 0, fmt.Errorf("llva.smc.replace: missing arguments")
		}
		tgt, ok1 := s.mc.NameAt(args[0])
		src, ok2 := s.mc.NameAt(args[1])
		if !ok1 || !ok2 {
			return 0, fmt.Errorf("llva.smc.replace: arguments are not functions")
		}
		ft, fs := s.ms.module.Function(tgt), s.ms.module.Function(src)
		if ft == nil || fs == nil || ft.Signature() != fs.Signature() {
			return 0, fmt.Errorf("llva.smc.replace: signature mismatch %%%s vs %%%s", tgt, src)
		}
		if s.redirect == nil {
			s.redirect = make(map[string]string)
		}
		s.redirect[tgt] = src
		s.sys.tele.Counter(MetricInvalidations).Inc()
		s.sys.tele.Events().Emit(telemetry.EvInvalidate, tgt, 0)
		// Mark this session's generated code invalid; regenerated on the
		// next invocation (paper, Section 3.4). The shared cache keeps
		// the original body's translation: it is still the correct
		// translation of that function for every other session and for
		// write-back (a fresh process starts with no redirects).
		return 0, s.mc.InvalidateFunction(tgt)
	case "llva.storage.register":
		if len(args) > 0 {
			s.storageAPIAddr = args[0]
		}
		return 0, nil
	case "llva.storage.get":
		return s.storageAPIAddr, nil
	case "llva.trap.register":
		// Recorded only: machine-level trap vectoring is outside the
		// simulated processor's scope (the interpreter implements full
		// handler dispatch).
		return 0, nil
	}
	return 0, fmt.Errorf("llee: unhandled intrinsic %%%s", name)
}
