// Package debughttp mounts the debug surface llva-run and llva-serve
// both serve. It is a package of its own, not part of prof, so that what
// imports prof for its tracer and profiler (llee, and through it every
// embedder and the benchmark) does not link net/http/pprof and the
// runtime profilers behind it.
package debughttp

import (
	"expvar"
	"net/http"
	"net/http/pprof"

	"llva/internal/prof"
	"llva/internal/telemetry"
)

// Register mounts the debug surface on mux: reg's metrics (/metrics,
// Prometheus text) and event ring (/metrics/events), t's span trace
// (/debug/llva/trace, prof.Tracer.Handler), expvar (/debug/vars, with reg
// published under "llva") and the runtime profiles (/debug/pprof/).
func Register(mux *http.ServeMux, reg *telemetry.Registry, t *prof.Tracer) {
	reg.Publish("llva")
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/metrics/events", reg.EventsHandler())
	mux.Handle("/debug/llva/trace", t.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
