package llee

import (
	"fmt"

	"llva/internal/prof"
	"llva/internal/telemetry"
)

// Guest-profile persistence: the guest profiler's exact block entries
// survive the process through the same storage API that backs the
// offline translation cache. The artifact is stamped with the module's
// content hash, so a profile gathered against different virtual object
// code is evicted rather than misattributed, and the artifact carries its
// own format version so a future encoding change is rejected instead of
// decoding garbage.

// storeGuestProfile persists the profiler's block entries, merged into
// any stamp-valid profile already stored (prof.Artifact.Merge sums the
// counts), so repeated runs accumulate, at whatever sampling rate each
// ran, instead of the last run winning. A stale stored profile is counted
// and evicted by the stamped read like any other artifact; a corrupt or
// other-version one is simply overwritten.
func (ms *moduleState) storeGuestProfile(p *prof.Profiler) error {
	if ms.sys.storage == nil {
		return fmt.Errorf("llee: guest-profile persistence requires the storage API")
	}
	if p == nil {
		return fmt.Errorf("llee: no profiler attached")
	}
	art := p.Artifact(ms.module.Name, ms.desc.Name)
	key := ms.key("guestprof")
	if old, ok := ms.readStamped(key); ok {
		if prev, err := prof.DecodeArtifact(old); err == nil && prev.Merge(art) == nil {
			art = prev
		}
	}
	data, err := art.Encode()
	if err != nil {
		return err
	}
	if err := ms.sys.storage.Write(key, ms.stamp, data); err != nil {
		return err
	}
	ms.sys.tele.Counter(MetricProfileStores).Inc()
	ms.sys.tele.Events().Emit(telemetry.EvProfileStored, key, int64(len(data)))
	return nil
}

// loadGuestProfile reads back a persisted guest profile, validating
// both the module stamp and the artifact's format version. A missing,
// unreadable or stale profile is not an error (ok=false); a corrupt or
// wrong-version one is.
func (ms *moduleState) loadGuestProfile() (*prof.Artifact, bool, error) {
	if ms.sys.storage == nil {
		return nil, false, nil
	}
	key := ms.key("guestprof")
	data, ok := ms.readStamped(key)
	if !ok {
		return nil, false, nil
	}
	a, err := prof.DecodeArtifact(data)
	if err != nil {
		return nil, false, fmt.Errorf("llee: guest profile: %w", err)
	}
	ms.sys.tele.Counter(MetricProfileLoads).Inc()
	ms.sys.tele.Events().Emit(telemetry.EvProfileLoaded, key, int64(len(a.Blocks)))
	return a, true, nil
}

// guestProfile is loadGuestProfile for a start, where the profile is
// optional like everything else in storage: one that does not decode or
// has the wrong version is a miss, counted and evicted, and the start
// proceeds at tier 1.
func (ms *moduleState) guestProfile() (*prof.Artifact, bool) {
	a, ok, err := ms.loadGuestProfile()
	if err != nil {
		key := ms.key("guestprof")
		ms.sys.tele.Counter(MetricCacheCorrupt).Inc()
		ms.sys.tele.Events().Emit(telemetry.EvCacheCorrupt, key, 0)
		ms.evictCache(key)
	}
	return a, ok
}

// ID returns the session's process-unique ID (its pid lane in the span
// trace).
func (s *Session) ID() uint64 { return s.id }

// Tenant returns the tenant label carried on this session's spans ("" when
// unset).
func (s *Session) Tenant() string { return s.tenant }

// Profiler returns the attached guest sampling profiler (nil when the
// session was created without WithProfiler).
func (s *Session) Profiler() *prof.Profiler { return s.profiler }

// LastCrash returns the flight recorder's report for the most recent
// unhandled trap, or nil when none fired or the recorder is off.
func (s *Session) LastCrash() *prof.CrashReport { return s.mc.LastCrash() }

// StoreGuestProfile persists the block entries the session's profiler
// counted through the storage API, stamped against the current virtual
// object code.
func (s *Session) StoreGuestProfile() error {
	return s.ms.storeGuestProfile(s.profiler)
}

// LoadGuestProfile reads back the persisted guest profile for this
// session's module and target. ok is false when none is stored or the
// stored one was built against different object code.
func (s *Session) LoadGuestProfile() (*prof.Artifact, bool, error) {
	return s.ms.loadGuestProfile()
}
