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
	DefaultGas uint64 // budget when the request omits gas (0: unmetered)
	MaxGas     uint64 // hard cap on requested gas (0: uncapped)

	TenantRate  float64 // admitted requests/sec per tenant (0: unlimited)
	TenantBurst int     // token-bucket burst (default 1)
	TenantGas   uint64  // aggregate cycle budget per tenant (0: unlimited)

	MaxOutput int // per-run captured output bytes (default 64 KiB)
}

// Server executes runs of registered modules on a bounded worker pool
// of llee Sessions sharing one System. Admission control happens before
// anything executes: draining, unknown module, tenant rate limit,
// tenant gas budget, and a full queue each refuse the request with a
// typed wire error — a shed request never starts executing.
type Server struct {
	cfg     Config
	tele    *telemetry.Registry
	limiter *tenantLimiter

	modMu sync.RWMutex
	mods  map[string]*moduleEntry

	queue    chan *job
	qMu      sync.RWMutex
	qClosed  bool
	draining atomic.Bool
	wg       sync.WaitGroup

	// halt is closed when a Drain's context expires. Every admitted run
	// is then canceled: a queued one by the worker that takes it, before
	// it starts; a running one by the handler waiting on it.
	halt     chan struct{}
	haltOnce sync.Once

	// pool holds finished reusable sessions keyed by module stamp, each
	// list capped at Workers. Target and MemSize are fixed per server, so
	// the stamp alone identifies compatible sessions. Workers pop, Reset,
	// run, and push back; a replaced module's orphaned stamp is dropped
	// wholesale.
	poolMu sync.Mutex
	pool   map[string][]*llee.Session
}

type moduleEntry struct {
	mod   *core.Module
	stamp string
}

// job is one admitted run. The worker that takes it writes the outcome
// (result, or status and errB) and then closes done; handleRun reads
// the outcome only after done is closed, so the close orders the writes
// before the read.
type job struct {
	req      RunRequest
	mod      *moduleEntry
	gas      uint64
	ctx      context.Context
	cancel   context.CancelFunc
	admitted time.Time

	result RunResponse
	errB   *errorBody
	status int
	done   chan struct{}
}

// finish records the outcome's status and error body (nil on success,
// after the worker has set result) and hands the job back to its handler.
func (j *job) finish(status int, eb *errorBody) {
	j.status, j.errB = status, eb
	j.cancel()
	close(j.done)
}

// New builds a Server and starts its worker pool.
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
		queue:   make(chan *job, cfg.Queue),
		pool:    make(map[string][]*llee.Session),
		halt:    make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
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

// admit runs the full admission pipeline. On refusal it returns a
// status+errorBody and the job is never created; on admission the job
// is queued and owned by the worker pool until it closes job.done.
func (s *Server) admit(ctx context.Context, req RunRequest) (*job, int, *errorBody) {
	s.tele.Counter(MetricRequests).Inc()
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable,
			&errorBody{Code: CodeDraining, Message: "server is draining", RetryAfter: 10}
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
	gas := req.Gas
	if gas == 0 {
		gas = s.cfg.DefaultGas
	}
	if s.cfg.MaxGas > 0 && (gas == 0 || gas > s.cfg.MaxGas) {
		gas = s.cfg.MaxGas
	}
	if req.Entry == "" {
		req.Entry = "main"
	}
	j := &job{
		req:      req,
		mod:      mod,
		gas:      gas,
		admitted: time.Now(),
		done:     make(chan struct{}),
	}
	j.ctx, j.cancel = context.WithCancel(ctx)
	// Non-blocking enqueue is the load-shedding decision: a full queue
	// means the pool is saturated and the request is refused NOW, before
	// any execution state exists.
	s.qMu.RLock()
	if s.qClosed {
		s.qMu.RUnlock()
		j.cancel()
		return nil, http.StatusServiceUnavailable,
			&errorBody{Code: CodeDraining, Message: "server is draining", RetryAfter: 10}
	}
	select {
	case s.queue <- j:
		s.qMu.RUnlock()
	default:
		s.qMu.RUnlock()
		j.cancel()
		s.tele.Counter(MetricShed).Inc()
		return nil, http.StatusTooManyRequests,
			&errorBody{Code: CodeShed, Message: "worker pool saturated", RetryAfter: 1}
	}
	s.tele.Counter(MetricAccepted).Inc()
	s.tele.Gauge(MetricQueueDepth).Add(1)
	return j, 0, nil
}

// workerState is one worker's reusable per-job scratch: the output
// buffer, the limit writer wrapping it, and the session-option slice.
// A worker runs one job at a time, so none of it needs pooling or
// locking — the steady state allocates neither buffer nor slice.
type workerState struct {
	out  bytes.Buffer
	lw   limitWriter
	opts []llee.SessionOption
}

func (s *Server) worker() {
	defer s.wg.Done()
	w := &workerState{}
	for j := range s.queue {
		s.runJob(w, j)
	}
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

// sessionFor acquires the job's session: a pooled one reset to pristine
// state (re-armed with this job's output writer, gas and tenant) when
// available, else a cold build sealed for later reuse.
func (s *Server) sessionFor(w *workerState, j *job) (*llee.Session, bool, error) {
	if sess := s.poolGet(j.mod.stamp); sess != nil {
		if err := sess.Reset(&w.lw, j.gas, j.req.Tenant); err == nil {
			s.tele.Counter(MetricSessionReuse).Inc()
			return sess, true, nil
		}
		// Reset refused (poolPut filters, so this is belt-and-braces):
		// drop the session and build cold.
	}
	s.tele.Counter(MetricSessionCold).Inc()
	w.opts = append(w.opts[:0],
		llee.WithGas(j.gas), llee.WithTenant(j.req.Tenant), llee.WithReuse(true))
	if s.cfg.MemSize != 0 {
		w.opts = append(w.opts, llee.WithMemSize(s.cfg.MemSize))
	}
	sess, err := s.cfg.System.NewSession(j.mod.mod, s.cfg.Target, &w.lw, w.opts...)
	return sess, false, err
}

// runJob executes one admitted job on this worker's goroutine.
func (s *Server) runJob(w *workerState, j *job) {
	s.tele.Gauge(MetricQueueDepth).Add(-1)
	if s.halted() || j.ctx.Err() != nil {
		// Canceled while queued: it never starts.
		s.tele.Counter(MetricCanceled).Inc()
		j.finish(http.StatusRequestTimeout,
			&errorBody{Code: CodeCanceled, Message: "canceled before execution started"})
		return
	}
	s.tele.Counter(MetricStarted).Inc()
	s.tele.Gauge(MetricActive).Add(1)
	defer s.tele.Gauge(MetricActive).Add(-1)
	started := time.Now()
	queueNS := started.Sub(j.admitted).Nanoseconds()
	s.tele.Histogram(MetricQueueNS).Observe(queueNS)

	w.out.Reset()
	w.lw = limitWriter{w: &w.out, limit: s.cfg.MaxOutput}
	sess, reused, err := s.sessionFor(w, j)
	if err != nil {
		s.tele.Histogram(MetricExecNS).Observe(time.Since(started).Nanoseconds())
		s.tele.Counter(MetricErrors).Inc()
		j.finish(classifyError(err, nil))
		return
	}
	res, err := sess.Run(j.ctx, j.req.Entry, j.req.Args...)
	execNS := time.Since(started).Nanoseconds()
	s.tele.Histogram(MetricExecNS).Observe(execNS)
	var ee *rt.ExitError
	if errors.As(err, &ee) {
		// exit() is an outcome: the exit code is the value.
		res.Value = uint64(uint32(int32(ee.Code)))
		err = nil
	}
	if err != nil {
		j.finish(classifyError(err, s.tele))
		// Errored runs left the machine consistent (traps, gas and
		// cancels unwind at block boundaries): the session pools fine.
		s.poolPut(j.mod.stamp, sess)
		return
	}
	s.tele.Counter(MetricCompleted).Inc()
	j.result = RunResponse{
		Value:    res.Value,
		Output:   w.out.String(),
		Instrs:   res.Instrs,
		Cycles:   res.Cycles,
		WallNS:   res.Wall.Nanoseconds(),
		QueueNS:  queueNS,
		ExecNS:   execNS,
		CacheHit: sess.CacheHit(),
		Reused:   reused,
	}
	j.finish(http.StatusOK, nil)
	s.poolPut(j.mod.stamp, sess)
}

// classifyError maps a run failure into the wire taxonomy (and bumps
// the outcome counter when tele is non-nil).
func classifyError(err error, tele *telemetry.Registry) (int, *errorBody) {
	var ge *machine.GasError
	if errors.As(err, &ge) {
		if tele != nil {
			tele.Counter(MetricOutOfGas).Inc()
		}
		return http.StatusPaymentRequired, &errorBody{
			Code: CodeOutOfGas, Message: err.Error(),
			CyclesUsed: ge.Used, GasBudget: ge.Budget,
		}
	}
	// The instruction limit bounds an unmetered run the way gas bounds a
	// metered one: the same answer, with no budget to report.
	if errors.Is(err, llee.ErrInstrLimit) {
		if tele != nil {
			tele.Counter(MetricOutOfGas).Inc()
		}
		return http.StatusPaymentRequired, &errorBody{Code: CodeOutOfGas, Message: err.Error()}
	}
	var te *llee.ErrTrap
	if errors.As(err, &te) {
		if tele != nil {
			tele.Counter(MetricErrors).Inc()
		}
		return http.StatusUnprocessableEntity, &errorBody{Code: CodeTrap, Message: err.Error()}
	}
	if errors.Is(err, llee.ErrCanceled) || errors.Is(err, context.Canceled) {
		if tele != nil {
			tele.Counter(MetricCanceled).Inc()
		}
		return http.StatusRequestTimeout, &errorBody{Code: CodeCanceled, Message: err.Error()}
	}
	if errors.Is(err, llee.ErrBadModule) {
		if tele != nil {
			tele.Counter(MetricErrors).Inc()
		}
		return http.StatusBadRequest, &errorBody{Code: CodeBadModule, Message: err.Error()}
	}
	if tele != nil {
		tele.Counter(MetricErrors).Inc()
	}
	return http.StatusInternalServerError, &errorBody{Code: CodeInternal, Message: err.Error()}
}

// Drain stops admission (new requests get 503 draining), lets queued
// and running jobs finish, and stops the workers. If ctx expires first,
// every admitted run is canceled: a running one at its next block
// boundary, a queued one when a worker takes it, without starting it.
// Drain then returns ctx.Err after the workers exit.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.qMu.Lock()
	if !s.qClosed {
		s.qClosed = true
		close(s.queue)
	}
	s.qMu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.haltOnce.Do(func() { close(s.halt) })
		<-done
		return ctx.Err()
	}
}

// halted reports whether a Drain timed out.
func (s *Server) halted() bool {
	select {
	case <-s.halt:
		return true
	default:
		return false
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
		writeError(w, http.StatusServiceUnavailable,
			&errorBody{Code: CodeDraining, Message: "server is draining", RetryAfter: 10})
		return
	}
	resp, err := s.Load(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, &errorBody{Code: CodeBadModule, Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRun admits the run, waits for the worker to finish the job, and
// relays the outcome. A client that hangs up gets no answer: its handler
// returns at once, and its run is canceled at the next block boundary,
// or never starts if it is still queued.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	j, status, eb := s.admit(r.Context(), req)
	if eb != nil {
		writeError(w, status, eb)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The request's cancellation reaches j.ctx too, but canceling
		// here makes the job read as canceled before the handler returns.
		j.cancel()
		return
	case <-s.halt:
		j.cancel()
		<-j.done
	}
	if j.errB != nil {
		writeError(w, j.status, j.errB)
		return
	}
	writeJSON(w, http.StatusOK, &j.result)
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
