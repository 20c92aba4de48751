package codegen_test

import (
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/target"
	"llva/internal/telemetry"
	"llva/internal/workloads"
)

var lowerSink int

// BenchmarkLower prices whole-module translation of the 17 suite
// programs per target and tier: one iteration translates every function
// of every program once. Tier 2 translates from a profile sampled on the
// tier-1 code during set-up, and reports its three costly stages over
// the hot functions as clone-ns/op, verify-ns/op and lower-ns/op (the
// codegen.tier2_*_ns histograms). `make bench-smoke` runs it once; for a
// before/after line run
//
//	go test -run '^$' -bench 'Lower|AllocLinear' -benchtime 20x -count 5 ./internal/codegen
//
// on both commits.
func BenchmarkLower(b *testing.B) {
	var mods []*core.Module
	for _, w := range workloads.All() {
		m, err := w.CompileOptimized()
		if err != nil {
			b.Fatal(err)
		}
		mods = append(mods, m)
	}
	for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
		tier1 := make([]*codegen.Translator, len(mods))
		tier2 := make([]*codegen.Translator, len(mods))
		reg := telemetry.New()
		for i, m := range mods {
			tr, err := codegen.New(d, m)
			if err != nil {
				b.Fatal(err)
			}
			obj, err := tr.TranslateModule()
			if err != nil {
				b.Fatal(err)
			}
			art, _ := suiteProfile(b, d, m, obj)
			tier1[i] = tr
			tier2[i] = tr.WithTier2(art)
			tier2[i].SetTelemetry(reg)
		}
		stages := []struct{ metric, unit string }{
			{codegen.MetricTier2CloneNS, "clone-ns/op"},
			{codegen.MetricTier2VerifyNS, "verify-ns/op"},
			{codegen.MetricTier2LowerNS, "lower-ns/op"},
		}
		for _, c := range []struct {
			tier string
			trs  []*codegen.Translator
		}{{"tier1", tier1}, {"tier2", tier2}} {
			b.Run(d.Name+"/"+c.tier, func(b *testing.B) {
				b.ReportAllocs()
				var sum0 []int64
				for _, st := range stages {
					sum0 = append(sum0, reg.Histogram(st.metric).Sum())
				}
				for i := 0; i < b.N; i++ {
					for _, tr := range c.trs {
						obj, err := tr.TranslateModule()
						if err != nil {
							b.Fatal(err)
						}
						lowerSink += obj.CodeSize()
					}
				}
				if c.tier == "tier2" {
					for k, st := range stages {
						b.ReportMetric(float64(reg.Histogram(st.metric).Sum()-sum0[k])/float64(b.N), st.unit)
					}
				}
			})
		}
	}
}
