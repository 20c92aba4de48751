package llva

import (
	"context"
	"errors"
	"io"
	"testing"

	"llva/internal/llee"
	"llva/internal/prof"
	"llva/internal/target"
	"llva/internal/telemetry"
	"llva/internal/workloads"
)

// BenchmarkTier2CodeCold measures the one start on which tier 2 is built
// while the program runs: a guest profile is stored, the code cache is
// gone. Per suite program on vx86 it seeds a store with one sampled run
// (tier1-cycles), then on every pass deletes the code entry, starts a
// fresh WithTier2 System and reports the first run's cycles (min and max
// over the passes: equal, since nothing on this path reads the host
// clock), the translation time that run stalled for on the demand path,
// and the cycles of a second run of the same session, which no longer
// pays the first call's stub traps. EXPERIMENTS.md, "What background
// tier-up bought", is this benchmark at -benchtime 3x on the commit that
// still had the hot-swap and on the one that deleted it.
func BenchmarkTier2CodeCold(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run(w.Name, func(b *testing.B) {
			m := compiled(b, w.Name)
			run := func(s *llee.Session) uint64 {
				res, err := s.Run(context.Background(), "main")
				if err != nil && !errors.Is(err, llee.ErrExit) {
					b.Fatal(err)
				}
				return res.Cycles
			}
			st := llee.NewMemStorage()
			seed := llee.NewSystem(llee.WithStorage(st))
			s, err := seed.NewSession(m, target.VX86, io.Discard, llee.WithProfiler(prof.NewProfiler(25)))
			if err != nil {
				b.Fatal(err)
			}
			tier1 := run(s)
			if err := s.StoreGuestProfile(); err != nil {
				b.Fatal(err)
			}
			if err := seed.Close(); err != nil {
				b.Fatal(err)
			}
			var lo, hi, second uint64
			var stall int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Delete("native:" + m.Name + ":" + target.VX86.Name); err != nil {
					b.Fatal(err)
				}
				reg := telemetry.New()
				sys := llee.NewSystem(llee.WithStorage(st), llee.WithTelemetry(reg), llee.WithTier2(true))
				s, err := sys.NewSession(m, target.VX86, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				first := run(s)
				stall += reg.Histogram(llee.MetricTranslateNS).Sum()
				second = run(s)
				if err := sys.Close(); err != nil {
					b.Fatal(err)
				}
				if i == 0 || first < lo {
					lo = first
				}
				if first > hi {
					hi = first
				}
			}
			b.ReportMetric(float64(tier1), "tier1-cycles")
			b.ReportMetric(float64(lo), "first-cycles-min")
			b.ReportMetric(float64(hi), "first-cycles-max")
			b.ReportMetric(float64(second), "second-cycles")
			b.ReportMetric(float64(stall)/float64(b.N)/1e6, "demand-stall-ms")
		})
	}
}
