package mem

import (
	"strconv"
	"testing"
)

var sink uint64

// BenchmarkMemNew prices an address space at the two sizes in use: 8 MiB
// (the benchmark's sessions) and 64 MiB (DefaultSize: llva-run and every
// library caller). One page is touched, as the smallest program would, so
// the figure is the cost of creating a space and not of filling it. Run it
// on both sides of a change to New:
//
//	go test -run '^$' -bench MemNew -benchtime 200x -benchmem -count 5 ./internal/mem
func BenchmarkMemNew(b *testing.B) {
	for _, mib := range []uint64{8, 64} {
		b.Run(strconv.FormatUint(mib, 10)+"MiB", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := New(mib<<20, true)
				if err := m.Store(NullGuard, 8, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadStore is the price of one guest memory access through the
// flat slice, the first dispatch-class cost of the engine: an 8-byte store
// and load per iteration, walking 64 pages so that a sealed memory pays
// its real mix of already-dirty and first-touch pages. ns/access is the
// guard that a change to how the space is backed did not move this path.
func BenchmarkLoadStore(b *testing.B) {
	for _, sealed := range []bool{false, true} {
		name := "unsealed"
		if sealed {
			name = "sealed"
		}
		b.Run(name, func(b *testing.B) {
			m := New(8<<20, true)
			m.SetHeapStart(NullGuard)
			if sealed {
				m.Seal()
			}
			const span = 64 * PageSize
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := NullGuard + uint64(i*520)%span
				if err := m.Store(addr, 8, uint64(i)); err != nil {
					b.Fatal(err)
				}
				v, err := m.Load(addr, 8)
				if err != nil {
					b.Fatal(err)
				}
				sink += v
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/access")
		})
	}
}
