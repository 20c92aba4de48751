// llva-run is the LLEE front door: it loads an LLVA executable, uses a
// cached translation if the storage API has one (validating its stamp),
// JIT-translates on demand otherwise, executes %main on the simulated
// processor, and writes new translations back to the cache.
//
// Usage: llva-run [-target vx86|vsparc] [-cache DIR] [-cache-max-bytes N]
//
//	[-interp] [-stats] [-translate-only] [-idle-optimize]
//	[-timeout D] [-gas N]
//	[-metrics-addr HOST:PORT] [-trace-out FILE]
//	[-prof] [-prof-rate N] [-prof-out FILE] [-prof-store] [-tier2]
//	[-tenant ID] [-flight-events N] prog.bc
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"llva/internal/codegen"
	"llva/internal/interp"
	"llva/internal/llee"
	"llva/internal/obj"
	"llva/internal/prof"
	"llva/internal/prof/debughttp"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/telemetry"
)

// exitHooks run before every exit path (telemetry flushing must survive
// os.Exit, which skips defers).
var exitHooks []func()

func exit(code int) {
	for _, h := range exitHooks {
		h()
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llva-run:", err)
	exit(1)
}

// serveMetrics exposes the registry (and the process's expvar/pprof
// debug surface) on addr. It listens synchronously so a bad address
// fails loudly, then serves in the background for the program's life.
// The guest observability surface rides along: the live event trace at
// /debug/llva/trace (Chrome trace_event JSON, Perfetto-loadable) and,
// when sampling is on, the folded guest stacks at /debug/llva/prof.
func serveMetrics(reg *telemetry.Registry, prober *prof.Profiler, addr string) {
	mux := http.NewServeMux()
	debughttp.Register(mux, reg)
	mux.HandleFunc("/debug/llva/prof", func(w http.ResponseWriter, r *http.Request) {
		if prober == nil {
			http.Error(w, "guest profiler not enabled (run with -prof)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = prober.WriteFolded(w)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(fmt.Errorf("metrics listener: %w", err))
	}
	fmt.Fprintf(os.Stderr, "llva-run: metrics on http://%s/metrics\n", ln.Addr())
	go func() { _ = http.Serve(ln, mux) }()
}

func main() {
	tgt := flag.String("target", "vsparc", "target I-ISA: vx86 or vsparc")
	cacheDir := flag.String("cache", "", "offline translation cache directory (storage API)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries beyond this many unique bytes (0: unlimited; needs -cache)")
	useInterp := flag.Bool("interp", false, "run on the reference interpreter instead")
	stats := flag.Bool("stats", false, "print execution statistics to stderr")
	offline := flag.Bool("translate-only", false, "offline-translate into the cache, do not execute")
	idleOpt := flag.Bool("idle-optimize", false, "idle-time PGO: complete the module's cache entry, with every function the stored guest profile (-prof-store) counted entries of, if there is one, translated at tier 2 and tagged with its stamp, so a later start translates nothing; does not execute (needs -cache)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics on this address (/metrics, /debug/llva/trace, /debug/llva/prof, /debug/vars, /debug/pprof)")
	traceOut := flag.String("trace-out", "", "write the telemetry event ring (cache, translation and session events and spans) as Chrome trace_event JSON (Perfetto-loadable) to FILE at exit")
	profOn := flag.Bool("prof", false, "profile the guest: count every block entry, and sample the virtual call stack every -prof-rate retired instructions")
	profRate := flag.Int("prof-rate", prof.DefaultRate, "guest sampling period in retired virtual instructions: shapes -prof-out and /debug/llva/prof only, since the stored profile is the exact block entries")
	profOut := flag.String("prof-out", "", "write the sampled guest call stacks as folded stacks to FILE at exit (implies -prof)")
	profStore := flag.Bool("prof-store", false, "persist the guest profile's block entries through the storage API after the run, merged into the stored ones (implies -prof, needs -cache)")
	tenant := flag.String("tenant", "", "tenant label carried on this session's trace spans")
	flightEvents := flag.Int("flight-events", 16, "trap-time flight recorder depth in telemetry events (0: disable crash reports)")
	tier2 := flag.Bool("tier2", false, "profile-guided tier-2 translation: when a stored guest profile exists, translate every function it counted entries of with superblocks and inlining, before the run where the cache holds code for them that this profile did not produce, at their first call where it holds none (needs -cache; store a profile with -prof-store)")
	timeout := flag.Duration("timeout", 0, "abort execution after this long on the wall clock (0: no limit)")
	gas := flag.Uint64("gas", 0, "per-run gas budget in simulated cycles; exhaustion stops the run at a block boundary (0: the machine default, 4e9 cycles)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: llva-run [-target T] [-cache DIR] [-interp] prog.bc")
		os.Exit(2)
	}

	reg := telemetry.New()
	var prober *prof.Profiler
	if *profOut != "" || *profStore {
		*profOn = true
	}
	if *profOn {
		prober = prof.NewProfiler(*profRate)
	}
	if *metricsAddr != "" {
		serveMetrics(reg, prober, *metricsAddr)
	}
	if *traceOut != "" {
		path := *traceOut
		exitHooks = append(exitHooks, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "llva-run: trace-out:", err)
				return
			}
			defer f.Close()
			if err := reg.Events().WriteChromeJSON(f); err != nil {
				fmt.Fprintln(os.Stderr, "llva-run: trace-out:", err)
			}
		})
	}
	if *profOut != "" {
		path := *profOut
		exitHooks = append(exitHooks, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "llva-run: prof-out:", err)
				return
			}
			defer f.Close()
			if err := prober.WriteFolded(f); err != nil {
				fmt.Fprintln(os.Stderr, "llva-run: prof-out:", err)
			}
		})
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	m, err := obj.Decode(data)
	if err != nil {
		fatal(err)
	}

	if *useInterp {
		ip, err := interp.New(m, os.Stdout)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		code, err := ip.RunMain()
		if err != nil {
			fatal(err)
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "interp: %d instructions in %v\n",
				ip.Stats.Instructions, time.Since(start))
		}
		exit(code)
	}

	var d *target.Desc
	switch *tgt {
	case "vx86":
		d = target.VX86
	case "vsparc":
		d = target.VSPARC
	default:
		fatal(fmt.Errorf("unknown target %q", *tgt))
	}

	sysOpts := []llee.SystemOption{
		llee.WithTelemetry(reg),
		llee.WithTier2(*tier2),
	}
	sessOpts := []llee.SessionOption{
		llee.WithTenant(*tenant),
		llee.WithFlightRecorder(*flightEvents),
		llee.WithGas(*gas),
	}
	if prober != nil {
		sessOpts = append(sessOpts, llee.WithProfiler(prober))
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
	// Close flushes pending cache write-back on every exit path.
	exitHooks = append(exitHooks, func() {
		if err := sys.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "llva-run: close:", err)
		}
	})
	sess, err := sys.NewSession(m, d, os.Stdout, sessOpts...)
	if err != nil {
		fatal(err)
	}
	if *offline {
		if err := sess.TranslateOffline(); err != nil {
			fatal(err)
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "offline: translated %d functions in %v\n",
				reg.CounterValue(llee.MetricTranslations),
				time.Duration(reg.Histogram(llee.MetricTranslateNS).Sum()))
		}
		exit(0)
	}
	if *idleOpt {
		if err := sess.IdleTimeOptimize(); err != nil {
			fatal(err)
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "idle-time: %d functions translated, %d of them at tier 2 (%d superblocks)\n",
				reg.CounterValue(llee.MetricTranslations), reg.CounterValue(codegen.MetricTier2Funcs),
				reg.CounterValue(codegen.MetricSuperblocks))
		}
		exit(0)
	}

	// SIGINT/SIGTERM cancel the run's context: the machine stops at the
	// next basic-block boundary and llva-run exits 130, the shell
	// convention for interrupted programs. -timeout does the same on a
	// deadline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := sess.Run(ctx, "main")
	code := int(int32(res.Value))
	if err != nil {
		var ee *rt.ExitError
		switch {
		case errors.As(err, &ee):
			code = ee.Code
		case errors.Is(err, llee.ErrCanceled):
			fmt.Fprintln(os.Stderr, "llva-run:", err)
			exit(130)
		case errors.Is(err, llee.ErrOutOfGas):
			// Exit 120: the -gas budget ran out (distinct from 130 so
			// scripts can tell a cancel from an exhaustion).
			fmt.Fprintln(os.Stderr, "llva-run:", err)
			exit(120)
		default:
			// An unhandled trap with the flight recorder on renders the
			// full post-mortem: registers, virtual backtrace, disassembly
			// around the faulting PC, and the last engine events.
			if cr := sess.LastCrash(); cr != nil {
				fmt.Fprintln(os.Stderr, "llva-run:", err)
				fmt.Fprintln(os.Stderr)
				_ = cr.Render(os.Stderr)
				exit(1)
			}
			fatal(err)
		}
	}
	if *profStore {
		if perr := sess.StoreGuestProfile(); perr != nil {
			fatal(perr)
		}
	}
	if *stats {
		mc := sess.Machine()
		fmt.Fprintf(os.Stderr,
			"target=%s cacheHit=%v translated=%d translateTime=%v\n"+
				"instrs=%d cycles=%d calls=%d externs=%d wall=%v\n",
			d.Name, sess.CacheHit(), reg.CounterValue(llee.MetricTranslations),
			time.Duration(reg.Histogram(llee.MetricTranslateNS).Sum()),
			mc.Stats.Instrs, mc.Stats.Cycles, mc.Stats.Calls,
			mc.Stats.ExternCalls, res.Wall)
	}
	if *stats && prober != nil {
		_ = prober.WriteReport(os.Stderr)
	}
	exit(code)
}
