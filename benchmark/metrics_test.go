package main

import (
	"testing"
	"time"
)

// synthetic builds a one-lane phase of 40 rounds of two ops, one of each
// kind, taking 1 ms and 3 ms; disturbed adds half as much again to three
// ops in five, the way the shared host does.
func synthetic(disturbed bool) *phase {
	p := &phase{lanes: make([]laneStats, 1)}
	var rounds []round
	n := 0
	for i := 0; i < 40; i++ {
		rounds = append(rounds, round{{kind: 0}, {kind: 1}})
		var wall int64
		for _, ns := range []int64{1e6, 3e6} {
			if disturbed && n%5 < 3 {
				ns += ns / 2
			}
			n++
			p.lanes[0].ops = append(p.lanes[0].ops, ns)
			wall += ns
		}
		p.lanes[0].rounds = append(p.lanes[0].rounds, wall)
		p.windows = append(p.windows, allocWindow{mallocs: 10, bytes: 640, ops: 2})
	}
	p.sched = [][]round{rounds}
	p.wall = time.Duration(sum(p.lanes[0].rounds))
	p.cpu = p.wall
	return p
}

// TestResults holds the two sets of timing metrics apart: interference
// that reaches most ops moves the four as measured and leaves the quiet
// estimates where they were.
func TestResults(t *testing.T) {
	// The warm-up is the first four rounds, 16 ms left alone.
	c, n := synthetic(false), synthetic(true)
	calm, calmMeasured := results(setupWall{time.Second, 16 * time.Millisecond}, head(c.sched, warmupDiv), c, guest{}, 0, 0)
	noisy, noisyMeasured := results(setupWall{time.Second, 22 * time.Millisecond}, head(n.sched, warmupDiv), n, guest{}, 0, 0)
	for name, want := range map[string]float64{
		"setup_s": 1.016, "quiet_ops_per_s": 500, "quiet_round_ms": 4, "quiet_op_us": 2000,
		"allocs_per_op": 5, "alloc_bytes_per_op": 320,
	} {
		if calm[name].Value != want || noisy[name].Value != want {
			t.Errorf("%s: %v calm, %v disturbed, want %v both times", name, calm[name].Value, noisy[name].Value, want)
		}
	}
	// CPU stretches with the wall, so the quiet CPU per op holds too.
	if c, n := calm["quiet_cpu_us_per_op"].Value, noisy["quiet_cpu_us_per_op"].Value; c != 2000 || n != 2000 {
		t.Errorf("quiet_cpu_us_per_op: %v calm, %v disturbed, want 2000 both times", c, n)
	}
	for name, want := range map[string]float64{"ops_per_s": 500, "round_p50_ms": 4, "op_p50_us": 2000, "cpu_us_per_op": 2000, "setup_wall_s": 1.016} {
		if got := calmMeasured[name].Value; got != want {
			t.Errorf("%s calm: %v, want %v", name, got, want)
		}
	}
	for _, d := range asMeasured {
		c, n := calmMeasured[d.name].Value, noisyMeasured[d.name].Value
		if worse := (n > c) == d.lower; n == c || !worse {
			t.Errorf("%s: %v calm, %v disturbed, want it worse", d.name, c, n)
		}
	}
}
