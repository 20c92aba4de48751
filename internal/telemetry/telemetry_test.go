package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestConcurrentCounters hammers one counter family from many
// goroutines; run with -race. The final value must be exact.
func TestConcurrentCounters(t *testing.T) {
	reg := New()
	const workers, perWorker = 16, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the workers resolve the handle every iteration (exercises
			// the registry map), half cache it (the hot-path pattern).
			c := reg.Counter("test.hits", "target", "vx86")
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					reg.Counter("test.hits", "target", "vx86").Inc()
				} else {
					c.Inc()
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.CounterValue("test.hits", "target", "vx86"); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.CounterValue("test.hits"); got != 0 {
		t.Fatalf("unlabeled instance = %d, want 0 (families must be distinct)", got)
	}
}

// TestConcurrentHistogram checks count/sum/min/max integrity under
// parallel observation.
func TestConcurrentHistogram(t *testing.T) {
	reg := New()
	h := reg.Histogram("test.latency")
	const workers, perWorker = 8, 5_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perWorker; i++ {
				h.Observe(int64(w*perWorker + i))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	n := int64(workers * perWorker)
	wantSum := n * (n + 1) / 2
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Min != 1 || s.Max != n {
		t.Fatalf("min/max = %d/%d, want 1/%d", s.Min, s.Max, n)
	}
	var bktTotal uint64
	for _, c := range s.Bkt {
		bktTotal += c
	}
	if bktTotal != s.Count {
		t.Fatalf("bucket total = %d, want %d", bktTotal, s.Count)
	}
}

func TestHistogramTimer(t *testing.T) {
	reg := New()
	h := reg.Histogram("test.timer")
	stop := h.Time()
	ns := stop()
	if ns < 0 {
		t.Fatalf("negative elapsed time %d", ns)
	}
	if h.Count() != 1 || h.Sum() != ns {
		t.Fatalf("timer did not observe: count=%d sum=%d ns=%d", h.Count(), h.Sum(), ns)
	}
}

// TestRingOverflow verifies the overwrite-oldest semantics: a ring of
// capacity C retains exactly the last C events in order, and reports
// the precise drop count.
func TestRingOverflow(t *testing.T) {
	const capacity, emitted = 8, 27
	r := NewRing(capacity)
	for i := 0; i < emitted; i++ {
		r.Emit(Event{Kind: EvCacheMiss, Name: "k", Value: int64(i)})
	}
	if r.Total() != emitted {
		t.Fatalf("total = %d, want %d", r.Total(), emitted)
	}
	if r.Dropped() != emitted-capacity {
		t.Fatalf("dropped = %d, want %d", r.Dropped(), emitted-capacity)
	}
	evs := r.Snapshot()
	if len(evs) != capacity {
		t.Fatalf("retained = %d, want %d", len(evs), capacity)
	}
	for i, e := range evs {
		wantSeq := uint64(emitted - capacity + i)
		if e.Seq != wantSeq || e.Value != int64(wantSeq) {
			t.Fatalf("event %d: seq=%d value=%d, want seq=value=%d", i, e.Seq, e.Value, wantSeq)
		}
	}
}

func TestRingUnderfillAndZeroCap(t *testing.T) {
	r := NewRing(16)
	r.Emit(Event{Kind: EvCacheHit, Name: "a", Value: 1})
	r.Emit(Event{Kind: EvInvalidate, Name: "b", Value: 2})
	evs := r.Snapshot()
	if len(evs) != 2 || evs[0].Kind != EvCacheHit || evs[1].Kind != EvInvalidate {
		t.Fatalf("underfilled snapshot wrong: %+v", evs)
	}
	if got := r.Find(EvInvalidate); len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("Find = %+v", got)
	}

	z := NewRing(0)
	z.Emit(Event{Kind: EvCacheHit, Name: "x"})
	if z.Total() != 1 || z.Len() != 0 || z.Dropped() != 1 {
		t.Fatalf("zero-cap ring: total=%d len=%d dropped=%d", z.Total(), z.Len(), z.Dropped())
	}
}

// TestConcurrentRing checks the ring under parallel emitters (-race)
// and that sequence numbers stay unique.
func TestConcurrentRing(t *testing.T) {
	r := NewRing(64)
	const workers, perWorker = 8, 1_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Emit(Event{Kind: EvTrapTaken, Name: "t", Value: int64(i)})
			}
		}()
	}
	wg.Wait()
	if r.Total() != workers*perWorker {
		t.Fatalf("total = %d, want %d", r.Total(), workers*perWorker)
	}
	seen := map[uint64]bool{}
	for _, e := range r.Snapshot() {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
	if len(seen) != 64 {
		t.Fatalf("retained %d, want 64", len(seen))
	}
}

func TestSnapshotAndHandler(t *testing.T) {
	reg := New()
	reg.Counter("a.b").Add(3)
	reg.Gauge("c.d", "fn", "main").Set(-7)
	reg.Histogram("e.f").Observe(100)
	reg.Events().Emit(Event{Kind: EvProfileLoaded, Name: "mod", Value: 42})

	s := reg.Snapshot()
	if s.Counters["a.b"] != 3 {
		t.Fatalf("counter snapshot = %v", s.Counters)
	}
	if s.Gauges["c.d{fn=main}"] != -7 {
		t.Fatalf("gauge snapshot = %v", s.Gauges)
	}
	if h := s.Histograms["e.f"]; h.Count != 1 || h.Sum != 100 || h.Min != 100 || h.Max != 100 {
		t.Fatalf("histogram snapshot = %+v", h)
	}
	if s.Events.Total != 1 {
		t.Fatalf("events snapshot = %+v", s.Events)
	}

	// The HTTP handler must serve the same thing as JSON.
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var decoded Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("handler body is not JSON: %v", err)
	}
	if decoded.Counters["a.b"] != 3 || decoded.Gauges["c.d{fn=main}"] != -7 {
		t.Fatalf("handler snapshot mismatch: %+v", decoded)
	}

}

func TestKeyPanicsOnOddLabels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd label list")
		}
	}()
	Key("x", "only-key")
}
