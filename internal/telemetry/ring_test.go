package telemetry

import (
	"sync"
	"testing"
)

// TestRingExactDroppedOnWrap: wrapping the ring must account every
// overwritten event — Total, Len, and Dropped stay exactly consistent,
// and the snapshot retains the newest cap events in seq order.
func TestRingExactDroppedOnWrap(t *testing.T) {
	const capacity, emits = 8, 20
	r := NewRing(capacity)
	for i := 0; i < emits; i++ {
		r.Emit(Event{Kind: EvTrapTaken, Name: "e", Value: int64(i)})
	}
	if r.Total() != emits {
		t.Errorf("Total() = %d, want %d", r.Total(), emits)
	}
	if r.Len() != capacity {
		t.Errorf("Len() = %d, want %d", r.Len(), capacity)
	}
	if r.Dropped() != emits-capacity {
		t.Errorf("Dropped() = %d, want %d", r.Dropped(), emits-capacity)
	}
	snap := r.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("snapshot retains %d events, want %d", len(snap), capacity)
	}
	for i, e := range snap {
		if want := uint64(emits - capacity + i); e.Seq != want {
			t.Errorf("snapshot[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
}

// TestRingZeroCapacityCounts: a zero-capacity ring retains nothing but
// still counts every emit as dropped.
func TestRingZeroCapacityCounts(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Kind: EvCacheHit, Name: "x"})
	}
	if r.Len() != 0 || r.Total() != 5 || r.Dropped() != 5 {
		t.Errorf("len=%d total=%d dropped=%d, want 0/5/5", r.Len(), r.Total(), r.Dropped())
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Errorf("snapshot = %v, want empty", got)
	}
}

// TestRingConcurrentEmitSnapshot: emitters racing snapshotters (run
// under -race by the race-prof target) must never corrupt the ring —
// every snapshot is seq-ordered with no gaps inside the retained
// window, and the final counts are exact.
func TestRingConcurrentEmitSnapshot(t *testing.T) {
	const capacity, writers, perWriter = 64, 8, 500
	r := NewRing(capacity)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				for i := 1; i < len(snap); i++ {
					if snap[i].Seq != snap[i-1].Seq+1 {
						t.Errorf("snapshot out of order: seq %d after %d",
							snap[i].Seq, snap[i-1].Seq)
						return
					}
				}
				_ = r.Dropped()
				_ = r.Stats()
			}
		}()
	}
	var emitters sync.WaitGroup
	for w := 0; w < writers; w++ {
		emitters.Add(1)
		go func(w int) {
			defer emitters.Done()
			for i := 0; i < perWriter; i++ {
				r.Emit(Event{Kind: EvJITRequest, Name: "f", Value: int64(w)})
			}
		}(w)
	}
	emitters.Wait()
	close(stop)
	wg.Wait()
	const total = writers * perWriter
	if r.Total() != total {
		t.Errorf("Total() = %d, want %d", r.Total(), total)
	}
	if r.Dropped() != total-capacity {
		t.Errorf("Dropped() = %d, want exactly %d", r.Dropped(), total-capacity)
	}
}
