package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// tiny builds each workload on a schedule of a second or less.
func tiny(t *testing.T, seed int64) map[string]workload {
	return map[string]workload{
		"translate": &translate{seed: seed, rounds: 2, names: shortPrograms},
		"execute":   &execute{seed: seed, rounds: 2, names: shortPrograms},
		"startup":   &startup{seed: seed, rounds: 2, names: []string{"gap"}, root: t.TempDir()},
		"serve":     &serveLoad{seed: seed, blocks: 4},
	}
}

var exactMetrics = []string{"guest_instrs", "guest_cycles", "native_bytes", "native_instrs"}

// TestDeterminism runs every workload twice with one seed and once with
// another: no op may fail, the exact counters must repeat bit for bit,
// and the second seed must reorder the schedule without moving them.
func TestDeterminism(t *testing.T) {
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			var runs []result
			var scheds [][][]round
			for _, seed := range []int64{1, 1, 2} {
				w := tiny(t, seed)[name]
				var traces []*recorder
				res, err := runWorkload(name, w, true, &traces)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct {
					t.Fatalf("seed %d: %d of %d ops failed: %s", seed, res.Failed, res.Attempted, res.FirstErr)
				}
				for _, d := range endToEnd {
					if res.EndToEnd[d.name].Value <= 0 {
						t.Errorf("seed %d: %s = %v, want > 0", seed, d.name, res.EndToEnd[d.name].Value)
					}
				}
				if len(res.PerLayer) != len(perLayer) {
					t.Errorf("ledger has %d metrics, catalogue %d", len(res.PerLayer), len(perLayer))
				}
				if len(traces) != 1 || len(traces[0].chromeEvents(1, name)) < res.Attempted/5 {
					t.Errorf("traced replay recorded too few spans")
				}
				runs = append(runs, res)
				scheds = append(scheds, w.schedule())
			}
			for _, m := range exactMetrics {
				a, b, c := runs[0].EndToEnd[m].Value, runs[1].EndToEnd[m].Value, runs[2].EndToEnd[m].Value
				if a != b || a != c || a <= 0 {
					t.Errorf("%s: %v, %v (same seed), %v (other seed): want identical and positive", m, a, b, c)
				}
			}
			if !reflect.DeepEqual(scheds[0], scheds[1]) {
				t.Error("the same seed built two different schedules")
			}
			if reflect.DeepEqual(scheds[0], scheds[2]) {
				t.Error("another seed built the same schedule")
			}
		})
	}
}

// TestStartupKeepsRoot: the cache root may be anyone's directory, so the
// workload removes the directory it made under it and nothing else.
func TestStartupKeepsRoot(t *testing.T) {
	root := t.TempDir()
	keep := filepath.Join(root, "not-the-benchmarks")
	if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := &startup{seed: 1, rounds: 1, names: []string{"gap"}, root: root}
	var traces []*recorder
	if res, err := runWorkload("startup", w, false, &traces); err != nil || res.Failed != 0 {
		t.Fatalf("%v, %d ops failed: %s", err, res.Failed, res.FirstErr)
	}
	left, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0].Name() != filepath.Base(keep) {
		t.Errorf("root holds %v after the run, want only %s", left, filepath.Base(keep))
	}
}
