package debughttp

import (
	"expvar"
	"net/http"
	"net/http/httptest"
	"testing"

	"llva/internal/prof"
	"llva/internal/telemetry"
)

// TestRegisterMountsTheSurface: Register mounts every route of the debug
// surface both commands serve, publishes the registry in expvar, and the
// registry and trace routes answer.
func TestRegisterMountsTheSurface(t *testing.T) {
	mux := http.NewServeMux()
	Register(mux, telemetry.New(), prof.NewTracer())
	for _, path := range []string{"/metrics", "/metrics/events", "/debug/llva/trace", "/debug/vars",
		"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile", "/debug/pprof/symbol", "/debug/pprof/trace"} {
		if _, pattern := mux.Handler(httptest.NewRequest(http.MethodGet, path, nil)); pattern != path {
			t.Errorf("%s is served by pattern %q", path, pattern)
		}
	}
	if expvar.Get("llva") == nil {
		t.Error("the registry is not published in expvar as llva")
	}
	for _, path := range []string{"/metrics", "/debug/llva/trace", "/debug/vars"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d", path, rec.Code)
		}
	}
}
