// Package debughttp mounts the debug surface llva-run and llva-serve
// both serve. It is a package of its own, not part of telemetry or prof,
// so that what imports those (llee, and through it every embedder and
// the benchmark) does not link net/http/pprof and the runtime profilers
// behind it.
package debughttp

import (
	"expvar"
	"net/http"
	"net/http/pprof"

	"llva/internal/telemetry"
)

// Register mounts the debug surface on mux: reg's metrics snapshot as
// JSON (/metrics, telemetry.Registry.Handler), reg's event ring as a
// Chrome trace_event document (/debug/llva/trace), expvar (/debug/vars,
// with reg published under "llva") and the runtime profiles
// (/debug/pprof/).
func Register(mux *http.ServeMux, reg *telemetry.Registry) {
	reg.Publish("llva")
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/llva/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.Events().WriteChromeJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
