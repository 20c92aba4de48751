package llee

// Idle-time profile-guided optimization (paper, Section 4.2): "the rich
// information in LLVA also enables 'idle-time' profile-guided
// optimization using the translator's optimization and code generation
// capabilities ... using profile information gathered from executions on
// an end-user's system." The profile is the guest profile a profiled run
// stored (guestprof.go); the optimizer is the tier-2 translator. Doing
// its work between executions leaves a later WithTier2 start nothing to
// translate: the module's code entry is a hit, and every hot function's
// record in it carries that profile's stamp.

// idleTimeOptimize is what a WithTier2 System's Preload does, over the
// guest profile stored now rather than the one the state was created
// under: it completes the module's code entry, translating the functions
// it lacks and those the profile marks hot and did not produce. Without a
// profile it is translateOffline.
func (ms *moduleState) idleTimeOptimize() error {
	var p tier2Plan
	if art, ok := ms.guestProfile(); ok {
		var err error
		if p, err = ms.planTier2(art); err != nil {
			return err
		}
	}
	return ms.translateOffline(&p)
}
