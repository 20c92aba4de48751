package llva

import (
	"context"
	"errors"
	"io"
	"testing"

	"llva/internal/llee"
	"llva/internal/target"
	"llva/internal/workloads"
)

// BenchmarkColdRunCycles prices the same translations reached two ways.
// Per suite program (O2) and target, every pass starts a fresh System
// over an empty store and runs main: a cold start, each function
// translated and installed at its first call (cold-cycles-min and -max
// over the passes: equal, because install order is demand order and
// nothing on the way reads the host clock). A second System over the
// store that run wrote then runs the same code installed up front
// (warm-cycles). The difference is calls bound to a stub because their
// callee had no code yet when the caller was installed. EXPERIMENTS.md,
// "One way in", is this benchmark at -benchtime 3x on the commit that
// routed every cold-start call through a stub and on the one that binds
// calls directly.
func BenchmarkColdRunCycles(b *testing.B) {
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		for _, w := range workloads.All() {
			b.Run(d.Name+"/"+w.Name, func(b *testing.B) {
				m := compiled(b, w.Name)
				start := func(st llee.Storage) uint64 {
					sys := llee.NewSystem(llee.WithStorage(st))
					s, err := sys.NewSession(m, d, io.Discard)
					if err != nil {
						b.Fatal(err)
					}
					res, err := s.Run(context.Background(), "main")
					if err != nil && !errors.Is(err, llee.ErrExit) {
						b.Fatal(err)
					}
					if err := sys.Close(); err != nil {
						b.Fatal(err)
					}
					return res.Cycles
				}
				var lo, hi, warm uint64
				for i := 0; i < b.N; i++ {
					st := llee.NewMemStorage()
					cold := start(st)
					if i == 0 || cold < lo {
						lo = cold
					}
					if cold > hi {
						hi = cold
					}
					warm = start(st)
				}
				b.ReportMetric(float64(lo), "cold-cycles-min")
				b.ReportMetric(float64(hi), "cold-cycles-max")
				b.ReportMetric(float64(warm), "warm-cycles")
			})
		}
	}
}
