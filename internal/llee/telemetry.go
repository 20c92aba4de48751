package llee

import "llva/internal/telemetry"

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

// recordTranslate accounts one translation batch (n functions, ns total).
func (sys *System) recordTranslate(name string, ns int64, n int) {
	sys.tele.Histogram(MetricTranslateNS).Observe(ns)
	sys.tele.Counter(MetricTranslations).Add(uint64(n))
	sys.tele.Events().Emit(telemetry.EvTranslateEnd, name, ns)
}
