package passes_test

import (
	"testing"
	"time"

	"llva/internal/core"
	"llva/internal/passes"
	"llva/internal/workloads"
)

// BenchmarkOptimize prices the O2 pipeline on the workload suite: one op
// runs all 17 modules through it, and each pass's share of that is
// reported as <pass>-ns/op, summed over the pass's runs in the pipeline.
// The front end's compiles are outside the timer. Before/after a change to
// the optimizer, on both commits:
//
//	go test -run '^$' -bench Optimize -benchtime 20x -count 5 ./internal/passes
func BenchmarkOptimize(b *testing.B) {
	suite := workloads.All()
	pipe := passes.O2()
	perPass := make(map[string]time.Duration)
	mods := make([]*core.Module, len(suite))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, w := range suite {
			m, err := w.Compile()
			if err != nil {
				b.Fatal(err)
			}
			mods[j] = m
		}
		b.StartTimer()
		for _, m := range mods {
			s := passes.NewStats()
			for _, p := range pipe.Passes {
				start := time.Now()
				p.Run(m, s)
				perPass[p.Name] += time.Since(start)
			}
		}
	}
	for name, d := range perPass {
		b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), name+"-ns/op")
	}
}
