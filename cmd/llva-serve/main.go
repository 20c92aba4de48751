// llva-serve is the multi-tenant LLVA execution daemon: it loads
// modules and runs them as llee Sessions against one shared System,
// with per-run gas budgets, per-tenant rate limits and aggregate gas
// budgets. Each run executes on its request's own handler goroutine, at
// most -workers at once; a request is shed once -workers plus -queue
// runs are admitted and unfinished, and a run that panics is answered
// 500 internal without taking the process down.
//
// Usage:
//
//	llva-serve [-addr HOST:PORT] [-target T] [-cache DIR] [-cache-max-bytes N]
//	           [-tier2] [-workers N] [-queue N] [-mem BYTES] [-gas-default N]
//	           [-gas-max N] [-tenant-rate R] [-tenant-burst N] [-tenant-gas N]
//	           [-drain-timeout D]
//
// The service API lives under /api/v1 (load, run); the same mux
// carries the llva-run observability surface: /metrics,
// /debug/llva/trace, /debug/vars and /debug/pprof.
// SIGINT/SIGTERM drains gracefully: admission returns 503 draining,
// admitted runs finish (up to -drain-timeout, then they are canceled),
// then the cache is flushed and the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"llva/internal/llee"
	"llva/internal/prof/debughttp"
	"llva/internal/serve"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// A client gets readHeaderTimeout to send a request's headers, and a
// keep-alive connection is closed after idleTimeout without one. There is
// no ReadTimeout or WriteTimeout: net/http runs both while the handler
// does, and a run may queue and execute for longer than any fixed bound.
// Bodies are bounded by size instead, in package serve.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llva-serve:", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address for the service API and metrics")
	tgt := flag.String("target", "vsparc", "target I-ISA: vx86 or vsparc")
	cacheDir := flag.String("cache", "", "offline translation cache directory (storage API)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries beyond this many unique bytes (0: unlimited; needs -cache)")
	workers := flag.Int("workers", 0, "concurrent executing sessions (0: one per CPU)")
	queue := flag.Int("queue", 0, "admitted-but-not-started capacity before shedding (0: 4x workers)")
	memSize := flag.Uint64("mem", 8<<20, "per-session simulated address space in bytes")
	gasDefault := flag.Uint64("gas-default", 0, "gas budget for requests that omit one (0: the machine default, 4e9 cycles)")
	gasMax := flag.Uint64("gas-max", 0, "hard cap on per-run gas budgets (0: uncapped)")
	tenantRate := flag.Float64("tenant-rate", 0, "admitted requests/sec per tenant (0: unlimited)")
	tenantBurst := flag.Int("tenant-burst", 8, "per-tenant token-bucket burst")
	tenantGas := flag.Uint64("tenant-gas", 0, "aggregate simulated-cycle budget per tenant (0: unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a graceful drain waits for in-flight runs")
	tier2 := flag.Bool("tier2", false, "profile-guided tier-2 translation when stored guest profiles exist (needs -cache)")
	flag.Parse()

	var d *target.Desc
	switch *tgt {
	case "vx86":
		d = target.VX86
	case "vsparc":
		d = target.VSPARC
	default:
		fatal(fmt.Errorf("unknown target %q", *tgt))
	}

	reg := telemetry.New()
	sysOpts := []llee.SystemOption{
		llee.WithTelemetry(reg),
		llee.WithTier2(*tier2),
	}
	if *cacheDir != "" {
		st, err := llee.NewDirStorage(*cacheDir)
		if err != nil {
			fatal(err)
		}
		st.SetMaxBytes(*cacheMax)
		st.SetTelemetry(reg)
		sysOpts = append(sysOpts, llee.WithStorage(st))
	} else if *cacheMax != 0 {
		fatal(fmt.Errorf("-cache-max-bytes requires -cache"))
	}
	sys := llee.NewSystem(sysOpts...)

	srv, err := serve.New(serve.Config{
		System:      sys,
		Target:      d,
		Workers:     *workers,
		Queue:       *queue,
		MemSize:     *memSize,
		DefaultGas:  *gasDefault,
		MaxGas:      *gasMax,
		TenantRate:  *tenantRate,
		TenantBurst: *tenantBurst,
		TenantGas:   *tenantGas,
	})
	if err != nil {
		fatal(err)
	}

	// One mux serves both the execution API and the observability
	// surface llva-run exposes under -metrics-addr.
	mux := http.NewServeMux()
	srv.Register(mux)
	debughttp.Register(mux, reg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "llva-serve: %s target on http://%s/api/v1 (metrics at /metrics)\n",
		d.Name, ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "llva-serve: %v: draining (timeout %v)\n", sig, *drainTimeout)
	case err := <-errc:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "llva-serve: drain:", err)
	}
	_ = hs.Shutdown(ctx)
	// Close flushes pending cache write-back after the last run.
	if err := sys.Close(); err != nil {
		fatal(err)
	}
}
