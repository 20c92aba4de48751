//go:build unix

package mem

import (
	"runtime"
	"testing"
	"time"
)

// TestFinalizerUnmaps: dropped memories give their mappings back. The
// live-mapping count returns to where it started once the collector has
// run and the finalizer goroutine has caught up; the address range the
// process holds is then bounded by what is reachable, not by what was
// ever created.
func TestFinalizerUnmaps(t *testing.T) {
	settle := func(want int64) int64 {
		deadline := time.Now().Add(10 * time.Second)
		for {
			runtime.GC()
			if n := liveMappings.Load(); n <= want || time.Now().After(deadline) {
				return n
			}
			time.Sleep(time.Millisecond)
		}
	}
	base := settle(0)
	for batch := 0; batch < 10; batch++ {
		for i := 0; i < 100; i++ {
			m := New(DefaultSize, true)
			if err := m.Store(NullGuard, 8, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
	}
	if n := settle(base); n != base {
		t.Errorf("live mappings = %d after 1,000 dropped memories, want the baseline %d", n, base)
	}

	held := New(1<<20, true)
	if n := settle(base + 1); n != base+1 {
		t.Errorf("live mappings = %d with one memory held, want %d", n, base+1)
	}
	runtime.KeepAlive(held)
}
