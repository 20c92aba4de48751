package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"llva/internal/asm"
	"llva/internal/core"
	"llva/internal/llee"
	"llva/internal/machine"
	"llva/internal/minic"
	"llva/internal/obj"
	"llva/internal/passes"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// Config sizes a Server. System and Target are required; zero values
// elsewhere pick the documented defaults.
type Config struct {
	System *llee.System
	Target *target.Desc

	Workers int // concurrent executing sessions (default: GOMAXPROCS)
	Queue   int // admitted-but-not-started capacity (default: 4×Workers)

	MemSize    uint64 // per-session simulated address space (0: llee default)
	DefaultGas uint64 // budget when the request omits gas (0: machine.DefaultGas)
	MaxGas     uint64 // hard cap on requested gas (0: uncapped)

	TenantRate  float64 // admitted requests/sec per tenant (0: unlimited)
	TenantBurst int     // token-bucket burst (default 1)
	TenantGas   uint64  // aggregate cycle budget per tenant (0: unlimited)

	MaxOutput int // per-run captured output bytes (default 64 KiB)
}

// Server executes runs of registered modules as llee Sessions sharing
// one System, each on the goroutine of the handler that admitted it.
// Admission control happens before anything executes: draining, unknown
// module, tenant rate limit, tenant gas budget, and Workers+Queue runs
// already admitted each refuse the request with a typed wire error — a
// refused request never starts executing.
type Server struct {
	cfg     Config
	tele    *telemetry.Registry
	limiter *tenantLimiter

	modMu sync.RWMutex
	mods  map[string]*moduleEntry

	// slots holds Workers slots: taking one starts a run, putting it back
	// ends it. states lists them all, for a timed-out Drain to cancel.
	slots  chan *workerState
	states []*workerState

	// inflight counts admitted, unfinished runs. Once draining, whoever
	// sees it at zero closes idle.
	inflight atomic.Int64
	draining atomic.Bool
	idle     chan struct{}
	idleOnce sync.Once

	// halt is closed when a Drain's context expires. Every admitted run
	// is then canceled: a waiting one when it takes a slot, before it
	// starts; a running one at its next block boundary.
	halt     chan struct{}
	haltOnce sync.Once

	// pool holds finished reusable sessions keyed by module stamp, each
	// list capped at Workers. Target and MemSize are fixed per server, so
	// the stamp alone identifies compatible sessions. Runs pop, Reset,
	// run, and push back; a replaced module's orphaned stamp is dropped
	// wholesale.
	poolMu sync.Mutex
	pool   map[string][]*llee.Session
}

type moduleEntry struct {
	mod   *core.Module
	stamp string
}

// runTestHook, when set, is called with each run's session just before
// it runs.
var runTestHook func(*llee.Session)

// New builds a Server. It starts no goroutine: every run executes on
// its own request's handler.
func New(cfg Config) (*Server, error) {
	if cfg.System == nil || cfg.Target == nil {
		return nil, errors.New("serve: Config.System and Config.Target are required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.Workers
	}
	if cfg.MaxOutput <= 0 {
		cfg.MaxOutput = 64 << 10
	}
	s := &Server{
		cfg:     cfg,
		tele:    cfg.System.Telemetry(),
		limiter: newTenantLimiter(cfg.TenantRate, cfg.TenantBurst),
		mods:    make(map[string]*moduleEntry),
		slots:   make(chan *workerState, cfg.Workers),
		states:  make([]*workerState, cfg.Workers),
		idle:    make(chan struct{}),
		pool:    make(map[string][]*llee.Session),
		halt:    make(chan struct{}),
	}
	for i := range s.states {
		s.states[i] = &workerState{}
		s.slots <- s.states[i]
	}
	return s, nil
}

// Load compiles and registers a module under req.Name (replacing any
// previous registration of that name).
func (s *Server) Load(req LoadRequest) (LoadResponse, error) {
	if req.Name == "" || req.Source == "" {
		return LoadResponse{}, fmt.Errorf("%w: name and source are required", llee.ErrBadModule)
	}
	var m *core.Module
	var err error
	switch req.Lang {
	case "", "c":
		m, err = minic.Compile(req.Name+".c", req.Source)
		if err == nil {
			_, err = passes.Optimize(m)
		}
	case "llva":
		m, err = asm.Parse(req.Name, req.Source)
	default:
		return LoadResponse{}, fmt.Errorf("%w: unknown lang %q", llee.ErrBadModule, req.Lang)
	}
	if err != nil {
		return LoadResponse{}, fmt.Errorf("%w: %v", llee.ErrBadModule, err)
	}
	m.Name = req.Name
	if err := core.Verify(m); err != nil {
		return LoadResponse{}, fmt.Errorf("%w: %v", llee.ErrBadModule, err)
	}
	enc, err := obj.Encode(m)
	if err != nil {
		return LoadResponse{}, fmt.Errorf("%w: %v", llee.ErrBadModule, err)
	}
	ent := &moduleEntry{mod: m, stamp: llee.Stamp(enc)}
	// Translate the whole module now, before it is runnable: every
	// session of it then installs all of its native code at setup and
	// translates nothing on demand — the precondition for pooled reuse.
	// Paying translation once at load is the paper's offline economics;
	// without this, sessions would have code left to install after any
	// seal and none could be pooled.
	if err := s.cfg.System.Preload(ent.mod, s.cfg.Target); err != nil {
		return LoadResponse{}, err
	}
	s.modMu.Lock()
	old := s.mods[req.Name]
	s.mods[req.Name] = ent
	orphaned := old != nil && old.stamp != ent.stamp
	if orphaned {
		for _, e := range s.mods {
			if e.stamp == old.stamp {
				orphaned = false
				break
			}
		}
	}
	s.modMu.Unlock()
	if orphaned {
		s.poolMu.Lock()
		delete(s.pool, old.stamp)
		s.poolMu.Unlock()
	}
	return LoadResponse{Name: req.Name, Stamp: ent.stamp}, nil
}

// admit runs the full admission pipeline and resolves req's defaults
// (entry, gas) in place. On refusal it returns a status and errorBody;
// an admitted run is counted in s.inflight until run returns.
func (s *Server) admit(req *RunRequest) (*moduleEntry, int, *errorBody) {
	s.tele.Counter(MetricRequests).Inc()
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable, errDraining()
	}
	s.modMu.RLock()
	mod := s.mods[req.Module]
	s.modMu.RUnlock()
	if mod == nil {
		return nil, http.StatusNotFound,
			&errorBody{Code: CodeNotFound, Message: "unknown module " + req.Module}
	}
	if ok, wait := s.limiter.allow(req.Tenant); !ok {
		s.tele.Counter(MetricRateLimited).Inc()
		return nil, http.StatusTooManyRequests,
			&errorBody{Code: CodeRateLimited, Message: "tenant over request rate", RetryAfter: wait}
	}
	if s.cfg.TenantGas > 0 && req.Tenant != "" {
		if used := s.cfg.System.TenantUsage(req.Tenant).Cycles; used >= s.cfg.TenantGas {
			s.tele.Counter(MetricGasDenied).Inc()
			return nil, http.StatusTooManyRequests, &errorBody{
				Code:    CodeGasBudget,
				Message: fmt.Sprintf("tenant gas budget exhausted: %d of %d cycles used", used, s.cfg.TenantGas),
			}
		}
	}
	if req.Gas == 0 {
		req.Gas = s.cfg.DefaultGas
	}
	if s.cfg.MaxGas > 0 && (req.Gas == 0 || req.Gas > s.cfg.MaxGas) {
		req.Gas = s.cfg.MaxGas
	}
	if req.Entry == "" {
		req.Entry = "main"
	}
	// Counting the run in is the load-shedding decision, made before any
	// execution state exists. Checking draining after the count refuses a
	// run that a concurrent Drain may not have counted.
	n := s.inflight.Add(1)
	if s.draining.Load() {
		s.leave()
		return nil, http.StatusServiceUnavailable, errDraining()
	}
	if n > int64(s.cfg.Workers+s.cfg.Queue) {
		s.leave()
		s.tele.Counter(MetricShed).Inc()
		return nil, http.StatusTooManyRequests,
			&errorBody{Code: CodeShed, Message: "server saturated", RetryAfter: 1}
	}
	s.tele.Counter(MetricAccepted).Inc()
	s.tele.Gauge(MetricQueueDepth).Add(1)
	return mod, 0, nil
}

func errDraining() *errorBody {
	return &errorBody{Code: CodeDraining, Message: "server is draining", RetryAfter: 10}
}

// leave counts an admitted run out, and tells a waiting Drain when it
// was the last one.
func (s *Server) leave() {
	if s.inflight.Add(-1) == 0 && s.draining.Load() {
		s.idleOnce.Do(func() { close(s.idle) })
	}
}

// workerState is one slot: per-run scratch that one run at a time
// reuses, so the steady state allocates neither buffer nor slice, and
// the cancel func of the run holding it (mu orders it against Drain).
type workerState struct {
	out  bytes.Buffer
	lw   limitWriter
	opts []llee.SessionOption

	mu     sync.Mutex
	cancel context.CancelFunc
}

// acquire waits for a slot and arms it for a run under ctx, returning
// the slot and the run's context. It returns a nil slot when the run
// must not start: its client hung up, or a Drain timed out.
func (s *Server) acquire(ctx context.Context) (*workerState, context.Context) {
	var ws *workerState
	select {
	case ws = <-s.slots:
	case <-ctx.Done():
		return nil, ctx
	}
	ws.mu.Lock()
	select {
	case <-s.halt:
	default:
		if ctx.Err() == nil {
			ctx, ws.cancel = context.WithCancel(ctx)
			ws.mu.Unlock()
			return ws, ctx
		}
	}
	ws.mu.Unlock()
	s.slots <- ws
	return nil, ctx
}

// release ends the run holding ws and puts the slot back.
func (s *Server) release(ws *workerState) {
	ws.mu.Lock()
	ws.cancel()
	ws.cancel = nil
	ws.mu.Unlock()
	s.slots <- ws
}

// poolGet pops a reusable session for the module stamp, or nil.
func (s *Server) poolGet(stamp string) *llee.Session {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	lst := s.pool[stamp]
	if len(lst) == 0 {
		return nil
	}
	sess := lst[len(lst)-1]
	lst[len(lst)-1] = nil
	s.pool[stamp] = lst[:len(lst)-1]
	return sess
}

// poolPut returns a finished session to the pool if it is still
// resettable (an SMC redirect disqualifies it — such sessions are
// evicted, never reset) and the module's list has room.
func (s *Server) poolPut(stamp string, sess *llee.Session) {
	if !sess.Resettable() {
		return
	}
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	if lst := s.pool[stamp]; len(lst) < s.cfg.Workers {
		s.pool[stamp] = append(lst, sess)
	}
}

// sessionFor acquires the run's session: a pooled one reset to pristine
// state (re-armed with this run's output writer, gas and tenant) when
// available, else a cold build sealed for later reuse.
func (s *Server) sessionFor(ws *workerState, req *RunRequest, mod *moduleEntry) (*llee.Session, bool, error) {
	if sess := s.poolGet(mod.stamp); sess != nil {
		if err := sess.Reset(&ws.lw, req.Gas, req.Tenant); err == nil {
			s.tele.Counter(MetricSessionReuse).Inc()
			return sess, true, nil
		}
		// Reset refused (poolPut filters, so this is belt-and-braces):
		// drop the session and build cold.
	}
	s.tele.Counter(MetricSessionCold).Inc()
	ws.opts = append(ws.opts[:0],
		llee.WithGas(req.Gas), llee.WithTenant(req.Tenant), llee.WithReuse(true))
	if s.cfg.MemSize != 0 {
		ws.opts = append(ws.opts, llee.WithMemSize(s.cfg.MemSize))
	}
	sess, err := s.cfg.System.NewSession(mod.mod, s.cfg.Target, &ws.lw, ws.opts...)
	return sess, false, err
}

// run executes an admitted request on the caller's goroutine: slot,
// session, Run. A panic anywhere in them is recovered here and costs
// that run only: it is answered 500 internal and its session is dropped,
// not pooled, while the deferred calls restore the slot and gauges.
func (s *Server) run(ctx context.Context, req *RunRequest, mod *moduleEntry) (resp RunResponse, status int, eb *errorBody) {
	admitted := time.Now()
	defer s.leave()
	ws, ctx := s.acquire(ctx)
	s.tele.Gauge(MetricQueueDepth).Add(-1)
	if ws == nil {
		// Canceled while waiting: it never starts.
		s.tele.Counter(MetricCanceled).Inc()
		return resp, http.StatusRequestTimeout,
			&errorBody{Code: CodeCanceled, Message: "canceled before execution started"}
	}
	defer s.release(ws)
	s.tele.Counter(MetricStarted).Inc()
	s.tele.Gauge(MetricActive).Add(1)
	defer s.tele.Gauge(MetricActive).Add(-1)
	started := time.Now()
	resp.QueueNS = started.Sub(admitted).Nanoseconds()
	s.tele.Histogram(MetricQueueNS).Observe(resp.QueueNS)
	defer func() {
		if p := recover(); p != nil {
			s.tele.Counter(MetricPanics).Inc()
			s.tele.Counter(MetricErrors).Inc()
			status, eb = http.StatusInternalServerError,
				&errorBody{Code: CodeInternal, Message: fmt.Sprintf("run panicked: %v", p)}
		}
	}()

	ws.out.Reset()
	ws.lw = limitWriter{w: &ws.out, limit: s.cfg.MaxOutput}
	sess, reused, err := s.sessionFor(ws, req, mod)
	if err != nil {
		s.tele.Histogram(MetricExecNS).Observe(time.Since(started).Nanoseconds())
		status, eb = s.classifyError(err)
		return resp, status, eb
	}
	if runTestHook != nil {
		runTestHook(sess)
	}
	res, err := sess.Run(ctx, req.Entry, req.Args...)
	resp.ExecNS = time.Since(started).Nanoseconds()
	s.tele.Histogram(MetricExecNS).Observe(resp.ExecNS)
	var ee *rt.ExitError
	if errors.As(err, &ee) {
		// exit() is an outcome: the exit code is the value.
		res.Value = uint64(uint32(int32(ee.Code)))
		err = nil
	}
	if err != nil {
		status, eb = s.classifyError(err)
	} else {
		s.tele.Counter(MetricCompleted).Inc()
		status = http.StatusOK
		resp.Value = res.Value
		resp.Output = ws.out.String()
		resp.Instrs = res.Instrs
		resp.Cycles = res.Cycles
		resp.WallNS = res.Wall.Nanoseconds()
		resp.Reused = reused
	}
	// Errored runs left the machine consistent (traps, gas and cancels
	// unwind at block boundaries): the session pools fine.
	s.poolPut(mod.stamp, sess)
	return resp, status, eb
}

// classifyError maps a run failure into the wire taxonomy and counts
// its outcome.
func (s *Server) classifyError(err error) (int, *errorBody) {
	var ge *machine.GasError
	if errors.As(err, &ge) {
		s.tele.Counter(MetricOutOfGas).Inc()
		return http.StatusPaymentRequired, &errorBody{
			Code: CodeOutOfGas, Message: err.Error(),
			CyclesUsed: ge.Used, GasBudget: ge.Budget,
		}
	}
	if errors.Is(err, llee.ErrCanceled) || errors.Is(err, context.Canceled) {
		s.tele.Counter(MetricCanceled).Inc()
		return http.StatusRequestTimeout, &errorBody{Code: CodeCanceled, Message: err.Error()}
	}
	s.tele.Counter(MetricErrors).Inc()
	var te *llee.ErrTrap
	if errors.As(err, &te) {
		return http.StatusUnprocessableEntity, &errorBody{Code: CodeTrap, Message: err.Error()}
	}
	if errors.Is(err, llee.ErrBadModule) {
		return http.StatusBadRequest, &errorBody{Code: CodeBadModule, Message: err.Error()}
	}
	return http.StatusInternalServerError, &errorBody{Code: CodeInternal, Message: err.Error()}
}

// Drain stops admission (new requests get 503 draining) and waits for
// every admitted run, waiting or running, to finish. If ctx expires
// first, every admitted run is canceled: a running one at its next block
// boundary, a waiting one when it takes a slot, without starting it.
// Drain then returns ctx.Err once they have all finished.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if s.inflight.Load() == 0 {
		s.idleOnce.Do(func() { close(s.idle) })
	}
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		s.haltOnce.Do(func() {
			close(s.halt)
			for _, ws := range s.states {
				ws.mu.Lock()
				if ws.cancel != nil {
					ws.cancel()
				}
				ws.mu.Unlock()
			}
		})
		<-s.idle
		return ctx.Err()
	}
}

// Register installs the /api/v1 endpoints on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/api/v1/load", s.handleLoad)
	mux.HandleFunc("/api/v1/run", s.handleRun)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, eb *errorBody) {
	if eb.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(eb.RetryAfter))
	}
	writeJSON(w, status, struct {
		Error *errorBody `json:"error"`
	}{eb})
}

// maxBodyBytes bounds the body of a load or run request. The
// largest suite program's source is under 4 KiB; a module past this bound
// is refused before it reaches the compiler.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body, at most maxBodyBytes of it, into v. On
// failure it writes the error response, 413 too_large past the bound and
// 400 bad_request otherwise, and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, &errorBody{Code: CodeTooLarge, Message: err.Error()})
	} else {
		writeError(w, http.StatusBadRequest, &errorBody{Code: CodeBadRequest, Message: err.Error()})
	}
	return false
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining())
		return
	}
	resp, err := s.Load(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, &errorBody{Code: CodeBadModule, Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRun admits the run, executes it on this goroutine, and writes
// the outcome. A client that hangs up cancels its run: at the next block
// boundary, or before it starts if it is still waiting for a slot.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	mod, status, eb := s.admit(&req)
	if eb == nil {
		var resp RunResponse
		if resp, status, eb = s.run(r.Context(), &req, mod); eb == nil {
			writeJSON(w, http.StatusOK, &resp)
			return
		}
	}
	writeError(w, status, eb)
}

// limitWriter caps captured program output so a guest cannot balloon
// the daemon's memory; excess bytes are counted but dropped.
type limitWriter struct {
	w     *bytes.Buffer
	limit int
}

func (lw *limitWriter) Write(p []byte) (int, error) {
	if room := lw.limit - lw.w.Len(); room > 0 {
		if len(p) > room {
			lw.w.Write(p[:room])
		} else {
			lw.w.Write(p)
		}
	}
	return len(p), nil
}
