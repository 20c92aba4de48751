package llee

import (
	"time"

	"llva/internal/telemetry"
)

// Metric families recorded by the execution manager. DESIGN.md's
// Observability section documents the full schema.
const (
	MetricCacheHits       = "llee.cache.hits"
	MetricCacheMisses     = "llee.cache.misses"
	MetricStampMismatches = "llee.cache.stamp_mismatches"
	MetricCacheEvictions  = "llee.cache.evictions"
	MetricCacheCorrupt    = "llee.cache.corrupt"
	MetricCacheReadErrors = "llee.cache.read_errors"
	MetricTranslations    = "llee.translations"
	MetricTranslateNS     = "llee.translate_ns"
	MetricInvalidations   = "llee.invalidations"
	MetricProfileLoads    = "llee.profile.loads"
	MetricProfileStores   = "llee.profile.stores"

	// Per-tenant usage, labeled {tenant=...} via telemetry.Key
	// (tenant.go): completed runs and simulated cycles consumed.
	MetricTenantRuns   = "llee.tenant.runs"
	MetricTenantCycles = "llee.tenant.cycles"

	// Session reuse (Session.Reset): resets performed, and how many
	// dirty pages each reset had to restore.
	MetricSessionResets   = "llee.session.resets"
	MetricResetDirtyPages = "llee.session.reset_dirty_pages"
)

// recordTranslate accounts one translation batch of module name that
// began at start and translated n functions.
func (sys *System) recordTranslate(name string, start time.Time, n int) {
	sys.tele.Histogram(MetricTranslateNS).Observe(time.Since(start).Nanoseconds())
	sys.tele.Counter(MetricTranslations).Add(uint64(n))
	sys.span(telemetry.Event{Kind: telemetry.EvTranslate, Name: name, Value: int64(n)}, start)
}

// span emits e as a span that began at start and ends now. A span lasts
// at least 1 ns, so that no span reads as an instant on a coarse clock.
func (sys *System) span(e telemetry.Event, start time.Time) {
	e.Time = start.UnixNano()
	e.Dur = max(time.Since(start).Nanoseconds(), 1)
	sys.tele.Events().Emit(e)
}
