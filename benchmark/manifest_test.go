package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func better(lower bool) string {
	if lower {
		return "lower"
	}
	return "higher"
}

// wantManifest is BENCHMARK.json as the program's own tables state it.
func wantManifest() manifest {
	m := manifest{
		Command:    []string{"sh", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: referenceSeconds,
	}
	for _, name := range workloadOrder {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{name, workloadWhy[name]})
	}
	for _, d := range endToEnd {
		bound := d.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, better(d.lower), &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.name, d.unit, better(d.lower), nil})
	}
	return m
}

// TestManifest holds BENCHMARK.json to the tables the program reports
// from: a metric added to one and not the other fails here, not in the
// driver.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := wantManifest(); !reflect.DeepEqual(got, want) {
		g, _ := json.MarshalIndent(got, "", "  ")
		w, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json and the program's tables disagree.\nfile:\n%s\ntables:\n%s", g, w)
	}
	if len(got.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes at most 128", len(got.PerLayer))
	}
}
