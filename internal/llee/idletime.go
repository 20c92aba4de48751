package llee

import "llva/internal/codegen"

// Idle-time profile-guided optimization (paper, Section 4.2): "the rich
// information in LLVA also enables 'idle-time' profile-guided
// optimization using the translator's optimization and code generation
// capabilities ... using profile information gathered from executions on
// an end-user's system." The profile is the guest profile a sampled run
// stored (guestprof.go); the optimizer is the tier-2 translator. Doing
// its work between executions leaves a later WithTier2 start nothing to
// translate: both code tiers are cache hits.

// IdleStats reports what one IdleTimeOptimize did beyond the tier-1
// translation of the whole module.
type IdleStats struct {
	Tier2Funcs int // hot functions translated at tier 2 and stored
	Traces     int // superblocks formed in them (codegen.superblocks, as it moved meanwhile)
}

// idleTimeOptimize translates the whole module at tier 1 into the
// cache, then, when a stamp-valid guest profile is stored, its hot
// functions at tier 2 into the profile-stamped entry beside it. Without
// a profile it is translateOffline.
func (ms *moduleState) idleTimeOptimize() (IdleStats, error) {
	var st IdleStats
	if err := ms.translateOffline(); err != nil {
		return st, err
	}
	art, ok := ms.guestProfile()
	if !ok {
		return st, nil
	}
	tr2, stamp2, hot, err := ms.tier2Plan(art)
	if err != nil {
		return st, err
	}
	superblocks := ms.sys.tele.Counter(codegen.MetricSuperblocks)
	before := superblocks.Value()
	funcs, err := ms.translateHot(tr2, stamp2, hot)
	st.Tier2Funcs = len(funcs)
	st.Traces = int(superblocks.Value() - before)
	return st, err
}
