// Package pipeline holds two metric names and nothing else: no code
// records them (translation is never speculative), and benchmark/startup.go
// reads them, always zero, into its pipeline.spec_hits/spec_waste ledger
// rows. Its test checks that functions translated concurrently on one
// shared codegen.Translator, as sessions translating at first call do,
// match the translator's sequential TranslateModule. The package goes
// when the benchmark's next change drops those rows (ROADMAP), and the
// test moves to codegen.
package pipeline

const (
	MetricSpecHits  = "pipeline.spec.hits"
	MetricSpecWaste = "pipeline.spec.waste"
)
