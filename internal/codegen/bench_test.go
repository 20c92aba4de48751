package codegen_test

import (
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/target"
	"llva/internal/workloads"
)

var lowerSink int

// BenchmarkLower prices whole-module translation of the 17 suite
// programs per target and tier: one iteration translates every function
// of every program once. Tier 2 translates from a profile sampled on the
// tier-1 code during set-up. `make bench-smoke` runs it once; for a
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
		for i, m := range mods {
			tr, err := codegen.New(d, m)
			if err != nil {
				b.Fatal(err)
			}
			obj, err := tr.TranslateModule()
			if err != nil {
				b.Fatal(err)
			}
			tier1[i] = tr
			tier2[i] = tr.WithTier2(suiteProfile(b, d, m, obj))
		}
		for _, c := range []struct {
			tier string
			trs  []*codegen.Translator
		}{{"tier1", tier1}, {"tier2", tier2}} {
			b.Run(d.Name+"/"+c.tier, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, tr := range c.trs {
						obj, err := tr.TranslateModule()
						if err != nil {
							b.Fatal(err)
						}
						lowerSink += obj.CodeSize()
					}
				}
			})
		}
	}
}
