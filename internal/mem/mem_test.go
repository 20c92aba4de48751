package mem

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(1<<20, true)
	fn := func(off uint16, v uint64, szSel uint8) bool {
		size := 1 << (szSel % 4) // 1,2,4,8
		addr := uint64(NullGuard) + uint64(off)
		if err := m.Store(addr, size, v); err != nil {
			return false
		}
		got, err := m.Load(addr, size)
		if err != nil {
			return false
		}
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*uint(size)) - 1
		}
		return got == v&mask
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestEndianness(t *testing.T) {
	le := New(1<<16, true)
	be := New(1<<16, false)
	addr := uint64(NullGuard)
	le.Store(addr, 4, 0x11223344)
	be.Store(addr, 4, 0x11223344)
	lb, _ := le.Bytes(addr, 4)
	bb, _ := be.Bytes(addr, 4)
	if lb[0] != 0x44 || lb[3] != 0x11 {
		t.Errorf("little-endian bytes: % x", lb)
	}
	if bb[0] != 0x11 || bb[3] != 0x44 {
		t.Errorf("big-endian bytes: % x", bb)
	}
	runtime.KeepAlive(le) // the views above are valid while their memories are reachable
	runtime.KeepAlive(be)
}

func TestNullGuardFaults(t *testing.T) {
	m := New(1<<16, true)
	if _, err := m.Load(0, 8); err == nil {
		t.Error("null load did not fault")
	}
	if _, err := m.Load(NullGuard-1, 1); err == nil {
		t.Error("guard-page load did not fault")
	}
	if err := m.Store(8, 4, 1); err == nil {
		t.Error("null store did not fault")
	}
	if _, err := m.Load(m.Size()-4, 8); err == nil {
		t.Error("out-of-bounds load did not fault")
	}
	// overflow wrap
	if _, err := m.Load(^uint64(0)-2, 8); err == nil {
		t.Error("wrapping load did not fault")
	}
}

func TestAllocatorReuseAndZeroing(t *testing.T) {
	m := New(1<<20, true)
	m.SetHeapStart(NullGuard + 64)
	a, err := m.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if a%16 != 0 {
		t.Errorf("allocation not 16-aligned: %#x", a)
	}
	m.Store(a, 8, 0xDEAD)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Errorf("freed block not reused: %#x vs %#x", b, a)
	}
	if v, _ := m.Load(b, 8); v != 0 {
		t.Errorf("reused block not zeroed: %#x", v)
	}
	// double free faults
	m.Free(b)
	if err := m.Free(b); err == nil {
		t.Error("double free did not fault")
	}
	// free(null) is a no-op
	if err := m.Free(0); err != nil {
		t.Error("free(0) must be a no-op")
	}
}

// TestAllocOverflowFaults: a request no space can hold faults and leaves
// the allocator where it was. At the parent Alloc(0xfffffffffffff000)
// wrapped its bound, returned success and moved brk back one page (below
// heapStart, into whatever is loaded there), and Alloc(^0) rounded to a
// zero-length live block.
func TestAllocOverflowFaults(t *testing.T) {
	const size = 4 << 20 // blocks over 1 MiB are rounded to 16, not to a power of two
	m := New(size, true)
	m.SetHeapStart(0x4000)
	for _, n := range []uint64{
		0xfffffffffffff000, // brk+n wraps to brk-0x1000
		^uint64(0),         // rounds up to 0
		^uint64(0) - 15,
		1 << 63,
		size,              // the whole space: no room beside the guard pages and the heap start
		size - 0x5000 + 1, // one byte more than fits
	} {
		addr, err := m.Alloc(n)
		if err == nil {
			t.Errorf("Alloc(%#x) = %#x, want a fault", n, addr)
		}
		if m.brk != 0x4000 || m.HeapUsed() != 0 || len(m.blockSize) != 0 {
			t.Fatalf("Alloc(%#x) moved the allocator: brk=%#x used=%d live=%d", n, m.brk, m.HeapUsed(), len(m.blockSize))
		}
	}
	// What does fit still does, to the byte: sp-NullGuard-brk, rounded to 16.
	if _, err := m.Alloc(size - 0x5000); err != nil {
		t.Errorf("largest block that fits: %v", err)
	}
}

func TestStackAllocation(t *testing.T) {
	m := New(1<<20, true)
	sp0 := m.SP()
	a, err := m.PushStack(24)
	if err != nil {
		t.Fatal(err)
	}
	if a >= sp0 || a%16 != 0 {
		t.Errorf("stack allocation at %#x (sp was %#x)", a, sp0)
	}
	if err := m.SetSP(sp0); err != nil {
		t.Fatal(err)
	}
	// stack overflow into the heap region faults
	if err := m.SetSP(100); err == nil {
		t.Error("stack collision did not fault")
	}
}

func TestFloatRoundTrip(t *testing.T) {
	m := New(1<<16, true)
	addr := uint64(NullGuard)
	if err := m.StoreFloat(addr, 8, 3.25); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.LoadFloat(addr, 8); v != 3.25 {
		t.Errorf("double round trip = %v", v)
	}
	if err := m.StoreFloat(addr, 4, 1.5); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.LoadFloat(addr, 4); v != 1.5 {
		t.Errorf("float round trip = %v", v)
	}
}

func TestCString(t *testing.T) {
	m := New(1<<16, true)
	addr := uint64(NullGuard)
	m.WriteBytes(addr, []byte("hello\x00world"))
	s, err := m.CString(addr)
	if err != nil || s != "hello" {
		t.Errorf("CString = %q, %v", s, err)
	}
}

// TestWidthAccessorsMatchLoadStore: each LoadLE*/StoreLE* either does what
// Load/Store does or declines and leaves everything as it was: on an
// access that faults, and on a store that Store would have to mark a page
// for.
func TestWidthAccessorsMatchLoadStore(t *testing.T) {
	type acc struct {
		size  int
		load  func(m *Memory, addr uint64) (uint64, bool)
		store func(m *Memory, addr, v uint64) bool
	}
	accs := []acc{
		{1, (*Memory).LoadLE8, (*Memory).StoreLE8},
		{2, (*Memory).LoadLE16, (*Memory).StoreLE16},
		{4, (*Memory).LoadLE32, (*Memory).StoreLE32},
		{8, (*Memory).LoadLE64, (*Memory).StoreLE64},
	}
	const size = 8 * PageSize
	addrs := []uint64{0, 1, NullGuard - 1, NullGuard, NullGuard + 3, 2*PageSize - 1, 2*PageSize - 3,
		3 * PageSize, size - 8, size - 4, size - 2, size - 1, size, size + 1, ^uint64(0), ^uint64(0) - 3}
	const v = 0x1122334455667788
	for _, sealed := range []bool{false, true} {
		for _, a := range accs {
			for _, addr := range addrs {
				m, want := New(size, true), New(size, true)
				if sealed {
					m.Seal()
					want.Seal()
					// One page is dirty already: a store inside it is the
					// common case, one that leaves it is not.
					for _, x := range []*Memory{m, want} {
						if err := x.Store(2*PageSize-8, 1, 0xEE); err != nil {
							t.Fatal(err)
						}
					}
				}
				err := want.Store(addr, a.size, v)
				clean := sealed && err == nil && want.DirtyPages() != 1
				if ok := a.store(m, addr, v); ok != (err == nil && !clean) {
					t.Errorf("sealed=%v: StoreLE%d(0x%x) = %v; Store: %v, marks a page: %v", sealed, 8*a.size, addr, ok, err, clean)
				} else if !ok {
					if m.DirtyPages() != min(want.DirtyPages(), 1) {
						t.Errorf("sealed=%v: a declined StoreLE%d(0x%x) marked a page", sealed, 8*a.size, addr)
					}
					m.Store(addr, a.size, v) // what the caller does next
				}
				if !bytes.Equal(m.data, want.data) || m.DirtyPages() != want.DirtyPages() {
					t.Errorf("sealed=%v: StoreLE%d(0x%x) and Store leave different memories", sealed, 8*a.size, addr)
				}
				wantV, err := want.Load(addr, a.size)
				if got, ok := a.load(m, addr); ok != (err == nil) || got != wantV {
					t.Errorf("LoadLE%d(0x%x) = 0x%x, %v; Load: 0x%x, %v", 8*a.size, addr, got, ok, wantV, err)
				}
			}
		}
	}
}
