package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "op_p50_us", lower: true, bound: 0.25}
	higher := metricDef{name: "ops_per_s", bound: 0.25}
	exact := metricDef{name: "guest_cycles", lower: true, exact: true}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within the bound", lower, []float64{100, 102, 98}, []float64{110, 112, 108}, "same"},
		{"beyond the bound", lower, []float64{100, 102, 98}, []float64{130, 132, 128}, "worse"},
		{"higher is better", higher, []float64{100, 102, 98}, []float64{70, 72, 68}, "worse"},
		{"faster is never worse", higher, []float64{100, 102, 98}, []float64{170, 172, 168}, "same"},
		{"wide runs that overlap", lower, []float64{60, 100, 140}, []float64{80, 130, 180}, "unresolved"},
		{"wide runs, every one worse", lower, []float64{60, 100, 140}, []float64{150, 200, 250}, "worse"},
		{"wide runs, every one better", lower, []float64{60, 100, 140}, []float64{20, 40, 60}, "same"},
		{"exact and equal", exact, []float64{5, 5}, []float64{5, 5}, "same"},
		{"exact and one more", exact, []float64{5, 5}, []float64{6, 6}, "worse"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
