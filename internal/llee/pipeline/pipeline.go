// Package pipeline holds two metric names and nothing else: no code
// records them (translation is never speculative), and benchmark/startup.go
// reads them, always zero, into its pipeline.spec_hits/spec_waste ledger
// rows. The package goes when the benchmark's next change drops those
// rows (ROADMAP).
package pipeline

const (
	MetricSpecHits  = "pipeline.spec.hits"
	MetricSpecWaste = "pipeline.spec.waste"
)
