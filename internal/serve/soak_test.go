package serve

import (
	"context"
	"runtime"
	"testing"
)

// TestServeHistoryIsBounded: what a server keeps does not grow with the
// runs it serves. One tenant runs one module 10,000 times (5,000 under
// -short, past the 4,096 runs whose one span each fills the default
// event ring: a pooled run adds its run span and nothing else, no no-op
// write-back); the live heap after a GC at the end is within 1 MiB of
// the live heap after the first fifth, and the event ring has dropped
// its oldest events instead of keeping them all.
func TestServeHistoryIsBounded(t *testing.T) {
	runs := 10_000
	if testing.Short() {
		runs = 5_000
	}
	_, c, sys := newTestServer(t, Config{Workers: 1})
	mustLoad(t, c, "quick", quickProg)
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var early int64
	events := sys.Telemetry().Events()
	for i := 0; i < runs; i++ {
		if i == runs/5 {
			early = live()
		}
		before := events.Total()
		if _, err := c.Run(context.Background(), RunRequest{Module: "quick", Tenant: "soak"}); err != nil {
			t.Fatal(err)
		}
		if n := events.Total() - before; i > 0 && n != 1 {
			t.Fatalf("run %d added %d events to the ring, want its one run span", i, n)
		}
	}
	grew := live() - early
	t.Logf("live heap %+d bytes over the last %d runs", grew, runs-runs/5)
	if grew > 1<<20 {
		t.Errorf("live heap grew %d bytes over the last %d runs (%.0f B a run), want at most 1 MiB",
			grew, runs-runs/5, float64(grew)/float64(runs-runs/5))
	}
	if events.Dropped() == 0 {
		t.Errorf("the event ring dropped nothing over %d runs: it holds all %d events", runs, events.Len())
	}
}
