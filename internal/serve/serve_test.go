package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llva/internal/llee"
	"llva/internal/rt"
	"llva/internal/target"
)

const quickProg = `
int work(int n) {
	int i, acc = 0;
	for (i = 0; i < n; i++) acc += i * i;
	return acc;
}
int main() {
	print_int(work(100)); print_nl();
	return 0;
}
`

// slowProg loops long enough that a run reliably outlives the test's
// observation window; it only ends via cancel or gas exhaustion.
const slowProg = `
int main() {
	int i, j, acc = 0;
	for (i = 0; i < 1000000; i++)
		for (j = 0; j < 1000000; j++)
			acc += i + j;
	return acc;
}
`

// newTestServer builds a Server on its own System plus an httptest
// front end, and returns a connected client.
func newTestServer(t testing.TB, cfg Config) (*Server, *Client, *llee.System) {
	t.Helper()
	sys := llee.NewSystem()
	cfg.System = sys
	cfg.Target = target.VX86
	if cfg.MemSize == 0 {
		cfg.MemSize = 1 << 22
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	hs := httptest.NewServer(mux)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		_ = sys.Close()
	})
	return srv, NewClient(hs.URL), sys
}

func mustLoad(t testing.TB, c *Client, name, src string) {
	t.Helper()
	resp, err := c.Load(context.Background(), LoadRequest{Name: name, Source: src})
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	if resp.Stamp == "" {
		t.Fatalf("load %s: empty stamp", name)
	}
}

func TestSyncRun(t *testing.T) {
	_, c, _ := newTestServer(t, Config{Workers: 2})
	mustLoad(t, c, "quick", quickProg)

	res, err := c.Run(context.Background(), RunRequest{Module: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	if want := "328350\n"; res.Output != want {
		t.Fatalf("output %q, want %q", res.Output, want)
	}
	if res.Cycles == 0 || res.Instrs == 0 {
		t.Fatalf("missing stats: %+v", res)
	}
}

func TestLoadErrors(t *testing.T) {
	_, c, _ := newTestServer(t, Config{Workers: 1})
	if _, err := c.Load(context.Background(), LoadRequest{Name: "bad", Source: "int main( {"}); err == nil {
		t.Fatal("want compile error")
	} else if !errors.Is(err, llee.ErrBadModule) {
		t.Fatalf("errors.Is(ErrBadModule) false: %v", err)
	}
	if _, err := c.Run(context.Background(), RunRequest{Module: "nosuch"}); err == nil {
		t.Fatal("want not-found error")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != CodeNotFound || re.Status != http.StatusNotFound {
			t.Fatalf("want 404 not_found, got %v", err)
		}
	}
}

// TestOversizeBodyRefused: a load whose body exceeds maxBodyBytes is
// refused with 413 too_large before anything compiles it, and the server
// goes on serving: a normal load and run on it then succeed.
func TestOversizeBodyRefused(t *testing.T) {
	_, c, _ := newTestServer(t, Config{Workers: 1})
	huge := "int main() { return 0; }\n" + strings.Repeat("/", maxBodyBytes)
	_, err := c.Load(context.Background(), LoadRequest{Name: "huge", Source: huge})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeTooLarge || re.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize load: want 413 too_large, got %v", err)
	}
	mustLoad(t, c, "quick", quickProg)
	res, err := c.Run(context.Background(), RunRequest{Module: "quick"})
	if err != nil {
		t.Fatalf("run after the refused load: %v", err)
	}
	if want := "328350\n"; res.Output != want {
		t.Fatalf("output %q, want %q", res.Output, want)
	}
}

// TestOutOfGasOverHTTP: a gas-limited run comes back as 402 out_of_gas;
// the client error satisfies errors.Is(llee.ErrOutOfGas) across the
// wire and carries a CyclesUsed that is identical on every repeat.
func TestOutOfGasOverHTTP(t *testing.T) {
	_, c, sys := newTestServer(t, Config{Workers: 2})
	mustLoad(t, c, "slow", slowProg)

	const budget = 10_000
	var firstUsed uint64
	for i := 0; i < 3; i++ {
		_, err := c.Run(context.Background(), RunRequest{Module: "slow", Gas: budget})
		if err == nil {
			t.Fatal("want out-of-gas error")
		}
		if !errors.Is(err, llee.ErrOutOfGas) {
			t.Fatalf("errors.Is(llee.ErrOutOfGas) false across HTTP: %v", err)
		}
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("no *RemoteError: %v", err)
		}
		if re.Status != http.StatusPaymentRequired || re.Code != CodeOutOfGas {
			t.Fatalf("want 402 out_of_gas, got %d %s", re.Status, re.Code)
		}
		if re.CyclesUsed < budget || re.GasBudget != budget {
			t.Fatalf("used %d of budget %d (wire says %d)", re.CyclesUsed, budget, re.GasBudget)
		}
		if i == 0 {
			firstUsed = re.CyclesUsed
		} else if re.CyclesUsed != firstUsed {
			t.Fatalf("nondeterministic exhaustion over HTTP: %d vs %d", firstUsed, re.CyclesUsed)
		}
	}
	if got := sys.Telemetry().CounterValue(MetricOutOfGas); got != 3 {
		t.Fatalf("serve.out_of_gas = %d, want 3", got)
	}
}

// TestDefaultAndMaxGas: a request without gas gets the server default;
// a request over the cap is clamped to MaxGas.
func TestDefaultAndMaxGas(t *testing.T) {
	_, c, _ := newTestServer(t, Config{Workers: 1, DefaultGas: 5_000, MaxGas: 20_000})
	mustLoad(t, c, "slow", slowProg)

	_, err := c.Run(context.Background(), RunRequest{Module: "slow"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeOutOfGas || re.GasBudget != 5_000 {
		t.Fatalf("default gas not applied: %v", err)
	}
	_, err = c.Run(context.Background(), RunRequest{Module: "slow", Gas: 1 << 60})
	if !errors.As(err, &re) || re.Code != CodeOutOfGas || re.GasBudget != 20_000 {
		t.Fatalf("max gas not enforced: %v", err)
	}
}

// TestSaturationSheds: with one worker and a one-slot queue, requests
// beyond capacity are refused with 429 shed — and the started counter
// proves a shed request never began executing.
func TestSaturationSheds(t *testing.T) {
	srv, c, sys := newTestServer(t, Config{Workers: 1, Queue: 1})
	mustLoad(t, c, "slow", slowProg)
	mustLoad(t, c, "quick", quickProg)
	tele := sys.Telemetry()
	started0 := tele.CounterValue(MetricStarted)
	canceled0 := tele.CounterValue(MetricCanceled)

	// A front end over the same server that numbers the run requests as
	// they arrive and reports when the second one's handler returns.
	var runs atomic.Int32
	queuedGone := make(chan struct{})
	mux := http.NewServeMux()
	srv.Register(mux)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var n int32
		if r.URL.Path == "/api/v1/run" {
			n = runs.Add(1)
		}
		mux.ServeHTTP(w, r)
		if n == 2 {
			close(queuedGone)
		}
	}))
	defer front.Close()
	c = NewClient(front.URL)

	// Occupy the worker and then the queue slot with unbounded slow runs.
	// One cancel hangs up both. The server would see the two hang-ups in
	// no fixed order, and a worker freed by the running blocker's could
	// take the queued run before its hang-up arrived; so the running
	// blocker's hang-up waits until the queued one's handler has returned.
	blockCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	runningCtx, cancelRunning := context.WithCancel(context.Background())
	defer cancelRunning()
	context.AfterFunc(blockCtx, func() { <-queuedGone; cancelRunning() })
	var blockers sync.WaitGroup
	block := func(ctx context.Context) {
		blockers.Add(1)
		go func() {
			defer blockers.Done()
			_, _ = c.Run(ctx, RunRequest{Module: "slow"})
		}()
	}
	block(runningCtx)
	waitFor(t, "the first blocker to start", func() bool { return tele.CounterValue(MetricStarted) == started0+1 })
	block(blockCtx)
	waitFor(t, "the second blocker to queue", func() bool { return tele.Gauge(MetricQueueDepth).Value() == 1 })

	ctx := context.Background()
	const burst = 8
	var wg sync.WaitGroup
	var shed int64
	var shedMu sync.Mutex
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Run(ctx, RunRequest{Module: "quick"})
			var re *RemoteError
			if errors.As(err, &re) && re.Code == CodeShed {
				if !errors.Is(err, ErrShed) {
					t.Error("shed error does not unwrap to ErrShed")
				}
				if re.Status != http.StatusTooManyRequests || re.RetryAfter < 1 {
					t.Errorf("shed response missing 429/Retry-After: %+v", re)
				}
				shedMu.Lock()
				shed++
				shedMu.Unlock()
			} else if err != nil {
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if shed != burst {
		t.Fatalf("shed %d of %d burst requests, want all", shed, burst)
	}
	// Execution never started for any shed request: only the first
	// blocker is running.
	if got := tele.CounterValue(MetricStarted); got != started0+1 {
		t.Fatalf("serve.started moved %d -> %d during shedding", started0+1, got)
	}
	if got := tele.CounterValue(MetricShed); got != burst {
		t.Fatalf("serve.shed = %d, want %d", got, burst)
	}

	// Hang up both blockers: both runs are canceled, the queued one
	// without ever starting.
	hangUp()
	blockers.Wait()
	waitFor(t, "both blockers canceled", func() bool {
		return tele.CounterValue(MetricCanceled) == canceled0+2
	})
	if got := tele.CounterValue(MetricStarted); got != started0+1 {
		t.Fatalf("serve.started = %d after the hang-up, want %d: the queued run started", got, started0+1)
	}
}

// TestQueuedHangUpFreesItsPlace: with one slot and a one-run queue, a
// run that hangs up while it waits gives its place back as soon as its
// handler has returned: a third request is then admitted, not shed, and
// runs once the slot frees.
func TestQueuedHangUpFreesItsPlace(t *testing.T) {
	srv, c, sys := newTestServer(t, Config{Workers: 1, Queue: 1})
	mustLoad(t, c, "slow", slowProg)
	mustLoad(t, c, "quick", quickProg)
	tele := sys.Telemetry()

	// A front end over the same server that numbers the run requests as
	// they arrive and reports when the second one's handler returns.
	var runs atomic.Int32
	queuedGone := make(chan struct{})
	mux := http.NewServeMux()
	srv.Register(mux)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var n int32
		if r.URL.Path == "/api/v1/run" {
			n = runs.Add(1)
		}
		mux.ServeHTTP(w, r)
		if n == 2 {
			close(queuedGone)
		}
	}))
	defer front.Close()
	c = NewClient(front.URL)

	slowCtx, stopSlow := context.WithCancel(context.Background())
	defer stopSlow()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		_, _ = c.Run(slowCtx, RunRequest{Module: "slow"})
	}()
	waitFor(t, "the slow run to start", func() bool { return tele.CounterValue(MetricStarted) == 1 })

	queuedCtx, hangUp := context.WithCancel(context.Background())
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		_, _ = c.Run(queuedCtx, RunRequest{Module: "quick"})
	}()
	waitFor(t, "the second run to queue", func() bool { return tele.Gauge(MetricQueueDepth).Value() == 1 })
	hangUp()
	<-queuedDone
	<-queuedGone

	third := make(chan error, 1)
	go func() {
		res, err := c.Run(context.Background(), RunRequest{Module: "quick"})
		if err == nil && res.Output != "328350\n" {
			err = fmt.Errorf("output %q", res.Output)
		}
		third <- err
	}()
	waitFor(t, "the third run to be admitted or refused", func() bool {
		return tele.CounterValue(MetricAccepted) == 3 || tele.CounterValue(MetricShed) != 0
	})
	stopSlow()
	<-slowDone
	if err := <-third; err != nil {
		t.Fatalf("third run, after the queued one hung up: %v", err)
	}
	if got := tele.CounterValue(MetricShed); got != 0 {
		t.Errorf("serve.shed = %d, want 0", got)
	}
}

// TestRunPanicIsContained: a run that panics costs that run only. Its
// client gets 500 internal naming the panic value, serve.panics counts
// it, its session is dropped rather than pooled, and the next run of the
// same module succeeds on the one slot with serve.active back at 0.
func TestRunPanicIsContained(t *testing.T) {
	srv, c, sys := newTestServer(t, Config{Workers: 1, Queue: 1})
	mustLoad(t, c, "quick", quickProg)
	tele := sys.Telemetry()

	var armed atomic.Bool
	armed.Store(true)
	runTestHook = func(sess *llee.Session) {
		if armed.Swap(false) {
			sess.Env().Register("print_int", func(*rt.Env, []uint64) (uint64, error) {
				panic("guest extern exploded")
			})
		}
	}
	t.Cleanup(func() { runTestHook = nil })

	_, err := c.Run(context.Background(), RunRequest{Module: "quick"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusInternalServerError || re.Code != CodeInternal {
		t.Fatalf("panicking run: want 500 internal, got %v", err)
	}
	if !strings.Contains(re.Message, "guest extern exploded") {
		t.Errorf("500 message %q does not name the panic value", re.Message)
	}
	if got := tele.CounterValue(MetricPanics); got != 1 {
		t.Errorf("serve.panics = %d, want 1", got)
	}
	if got := tele.Gauge(MetricActive).Value(); got != 0 {
		t.Errorf("serve.active = %d after the panic, want 0", got)
	}

	res, err := c.Run(context.Background(), RunRequest{Module: "quick"})
	if err != nil {
		t.Fatalf("run after the panic: %v", err)
	}
	if want := "328350\n"; res.Output != want {
		t.Fatalf("output %q, want %q", res.Output, want)
	}
	if res.Reused {
		t.Error("the run after the panic reused the panicked run's session")
	}
	if got := tele.Gauge(MetricActive).Value(); got != 0 {
		t.Errorf("serve.active = %d, want 0", got)
	}
	if got := srv.inflight.Load(); got != 0 {
		t.Errorf("%d runs still counted in after both finished", got)
	}
}

// TestDrainTimeoutCancelsRuns: a Drain whose context expires while an
// unmetered run executes cancels every admitted run and returns
// ctx.Err(). The running one's client gets 408 canceled; the one queued
// behind it gets the same without ever starting.
func TestDrainTimeoutCancelsRuns(t *testing.T) {
	srv, c, sys := newTestServer(t, Config{Workers: 1})
	mustLoad(t, c, "slow", slowProg)
	tele := sys.Telemetry()

	errs := make(chan error, 2)
	run := func() {
		_, err := c.Run(context.Background(), RunRequest{Module: "slow"})
		errs <- err
	}
	go run()
	waitFor(t, "the first run to start", func() bool { return tele.CounterValue(MetricStarted) == 1 })
	go run()
	waitFor(t, "the second run to queue", func() bool { return tele.Gauge(MetricQueueDepth).Value() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want %v", err, context.DeadlineExceeded)
	}
	for i := 0; i < 2; i++ {
		err := <-errs
		var re *RemoteError
		if !errors.Is(err, llee.ErrCanceled) || !errors.As(err, &re) ||
			re.Status != http.StatusRequestTimeout || re.Code != CodeCanceled {
			t.Errorf("run after the drain timeout: want 408 canceled, got %v", err)
		}
	}
	if got := tele.CounterValue(MetricStarted); got != 1 {
		t.Errorf("serve.started = %d, want 1: the queued run started", got)
	}
	if got := tele.CounterValue(MetricCanceled); got != 2 {
		t.Errorf("serve.canceled = %d, want 2", got)
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTenantRateLimit: the per-tenant token bucket refuses the burst
// overflow with 429 rate_limited, independently per tenant.
func TestTenantRateLimit(t *testing.T) {
	_, c, _ := newTestServer(t, Config{Workers: 2, TenantRate: 0.001, TenantBurst: 2})
	mustLoad(t, c, "quick", quickProg)

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Run(ctx, RunRequest{Module: "quick", Tenant: "alice"}); err != nil {
			t.Fatalf("burst run %d: %v", i, err)
		}
	}
	_, err := c.Run(ctx, RunRequest{Module: "quick", Tenant: "alice"})
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("errors.Is(ErrRateLimited) false: %v", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusTooManyRequests || re.RetryAfter < 1 {
		t.Fatalf("want 429 with Retry-After, got %v", err)
	}
	// A different tenant still has its own burst.
	if _, err := c.Run(ctx, RunRequest{Module: "quick", Tenant: "bob"}); err != nil {
		t.Fatalf("bob should be unaffected: %v", err)
	}
}

// TestTenantGasBudget: once a tenant's aggregate cycles cross the
// server's TenantGas, further requests are refused at admission.
func TestTenantGasBudget(t *testing.T) {
	_, c, _ := newTestServer(t, Config{Workers: 1, TenantGas: 1})
	mustLoad(t, c, "quick", quickProg)

	ctx := context.Background()
	// First run is admitted (usage 0 < 1) and spends well over a cycle.
	if _, err := c.Run(ctx, RunRequest{Module: "quick", Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Run(ctx, RunRequest{Module: "quick", Tenant: "alice"})
	if !errors.Is(err, ErrGasBudget) {
		t.Fatalf("errors.Is(ErrGasBudget) false: %v", err)
	}
	// The anonymous tenant is never budget-limited.
	if _, err := c.Run(ctx, RunRequest{Module: "quick"}); err != nil {
		t.Fatalf("anonymous run refused: %v", err)
	}
}

// TestDrainRefuses: after Drain begins, new work is refused with 503
// draining while in-flight runs complete.
func TestDrainRefuses(t *testing.T) {
	srv, c, _ := newTestServer(t, Config{Workers: 1})
	mustLoad(t, c, "quick", quickProg)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := c.Run(context.Background(), RunRequest{Module: "quick"})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("errors.Is(ErrDraining) false: %v", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %v", err)
	}
	if _, err := c.Load(context.Background(), LoadRequest{Name: "x", Source: quickProg}); err == nil {
		t.Fatal("load should be refused while draining")
	}
}

// TestLoadGenSmoke: the in-process load generator completes a short
// burst with no server-side failures.
func TestLoadGenSmoke(t *testing.T) {
	_, c, sys := newTestServer(t, Config{Workers: 4, Queue: 4096})
	mustLoad(t, c, "quick", quickProg)

	rep, err := RunLoadGen(context.Background(), LoadGenConfig{
		Base:     strings.TrimSuffix(c.Base, "/"),
		Module:   "quick",
		Sessions: 32,
		Total:    200,
		Gas:      10_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatalf("no completed runs: %+v", rep)
	}
	if rep.Errors5xx != 0 || rep.OtherErrors != 0 {
		t.Fatalf("server-side failures under load: %+v", rep)
	}
	if rep.Completed+rep.Shed+rep.OutOfGas != rep.Attempted {
		t.Fatalf("outcome accounting off: %+v", rep)
	}
	if rep.Completed > 0 && rep.P50LatencyNS == 0 {
		t.Fatalf("missing latency percentiles: %+v", rep)
	}
	// The server-reported split must be populated too; exec includes the
	// run itself so its p50 is never zero.
	if rep.Completed > 0 && rep.ExecP50NS == 0 {
		t.Fatalf("missing queue/exec latency split: %+v", rep)
	}
	// This harness mounts only /api/v1 — the pool-counter fetch must
	// degrade to zeros, not fail the burst.
	if rep.SessionReuse != 0 || rep.SessionCold != 0 {
		t.Fatalf("pool counters nonzero without /metrics: %+v", rep)
	}
	if got := sys.Telemetry().CounterValue(MetricCompleted); got != uint64(rep.Completed) {
		t.Fatalf("serve.completed %d != report completed %d", got, rep.Completed)
	}
}
