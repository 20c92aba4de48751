package mem

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// TestSizeIsRequestedSize: the mapping is page-granular underneath, the
// address space is not. A size that is no page multiple is the size, and
// the byte after it faults.
func TestSizeIsRequestedSize(t *testing.T) {
	const size = 5*PageSize + 123
	m := New(size, true)
	if m.Size() != size {
		t.Fatalf("Size() = %d, want %d", m.Size(), size)
	}
	if err := m.Store(size-1, 1, 0xff); err != nil {
		t.Errorf("store to the last byte: %v", err)
	}
	if err := m.Store(size, 1, 0xff); err == nil {
		t.Error("store one past the last byte did not fault")
	}
	if _, err := m.Load(size-4, 8); err == nil {
		t.Error("load straddling the end did not fault")
	}
}

// TestFreshMemoryReadsZero is the cross-tenant property at this layer: a
// new Memory reads zero everywhere, whatever an earlier Memory of the same
// size held when it was dropped and collected. With a mapped space that is
// the kernel's guarantee (a recycled range is zero-filled again), with the
// make fallback the allocator's.
func TestFreshMemoryReadsZero(t *testing.T) {
	const size = 1 << 20
	fill := func() {
		m := New(size, true)
		view, err := m.Bytes(NullGuard, size-NullGuard)
		if err != nil {
			t.Fatal(err)
		}
		copy(view, bytes.Repeat([]byte("secret42"), size/8))
		runtime.KeepAlive(m)
	}
	for round := 0; round < 4; round++ {
		fill()
		runtime.GC()
		m := New(size, true)
		for _, addr := range []uint64{NullGuard, size / 2, size - 8} {
			if v, err := m.Load(addr, 8); err != nil || v != 0 {
				t.Fatalf("round %d: fresh memory at %#x = %#x, %v; want 0", round, addr, v, err)
			}
		}
		if v, err := m.Load(size-1, 1); err != nil || v != 0 {
			t.Fatalf("round %d: fresh memory's last byte = %#x, %v; want 0", round, v, err)
		}
	}
}

// failMap is a mapBytes that always refuses, which is what New sees on a
// platform without mapAnon.
func failMap(uint64) ([]byte, error) { return nil, errors.ErrUnsupported }

// TestMakeFallback drives New's make path directly: the mapping helper
// refuses an impossible size, a refused mapping still yields a working
// Memory, and the package's whole suite passes with every mapping refused.
func TestMakeFallback(t *testing.T) {
	if b, err := mapAnon(^uint64(0)); err == nil {
		t.Fatalf("mapAnon of an impossible size returned %d bytes", len(b))
	}
	defer func(f func(uint64) ([]byte, error)) { mapBytes = f }(mapBytes)
	mapBytes = failMap
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"LoadStoreRoundTrip", TestLoadStoreRoundTrip},
		{"Endianness", TestEndianness},
		{"NullGuardFaults", TestNullGuardFaults},
		{"AllocatorReuseAndZeroing", TestAllocatorReuseAndZeroing},
		{"AllocOverflowFaults", TestAllocOverflowFaults},
		{"StackAllocation", TestStackAllocation},
		{"FloatRoundTrip", TestFloatRoundTrip},
		{"CString", TestCString},
		{"SizeIsRequestedSize", TestSizeIsRequestedSize},
		{"FreshMemoryReadsZero", TestFreshMemoryReadsZero},
		{"ResetRestoresPristine", TestResetRestoresPristine},
		{"ResetCostScalesWithDirty", TestResetCostScalesWithDirty},
		{"ResetAllocatorDeterminism", TestResetAllocatorDeterminism},
		{"ResetUnsealedNoop", TestResetUnsealedNoop},
	} {
		t.Run(tc.name, tc.fn)
	}
}
