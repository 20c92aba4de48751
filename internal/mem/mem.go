// Package mem provides the flat, byte-addressable memory used by both the
// LLVA reference interpreter and the simulated hardware processor. Memory
// is partitioned into a null-guard page, a static data segment, a code
// segment, a heap growing upward and a stack growing downward — matching
// the paper's model in which memory is partitioned into stack, heap and
// global memory and all memory is explicitly allocated.
//
// On unix the address space is an anonymous private mapping, so the kernel
// supplies zero pages on first touch and a Memory costs what its program
// touches, not what it could address; a finalizer on the *Memory unmaps
// it. That adds one rule: a view into the space (Bytes, CBytes, the
// machine's code slice, a Seal segment until Seal has copied it) is valid
// only while its Memory is reachable. Hold the *Memory (rt.Env and
// machine.Machine do) for as long as a view is read, or end the last read
// with runtime.KeepAlive.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
)

// Fault describes a memory access violation (the LLVA memory exception).
type Fault struct {
	Addr uint64
	Size int
	Op   string // "load", "store", "exec", "alloc"
}

func (f *Fault) Error() string {
	return fmt.Sprintf("memory fault: %s of %d byte(s) at 0x%x", f.Op, f.Size, f.Addr)
}

// Layout constants for the default address space.
const (
	// NullGuard is the size of the unmapped page at address zero; any
	// access below this address faults, implementing null-pointer
	// detection.
	NullGuard = 0x1000
	// DefaultSize is the default address-space size (64 MiB). Where the
	// space is mapped (see New) that is address range, not memory: an
	// untouched page is never resident.
	DefaultSize = 64 << 20
	// PageShift/PageSize set the dirty-tracking granularity (Seal/Reset):
	// one bit per 4 KiB page.
	PageShift = 12
	PageSize  = 1 << PageShift
)

// Segment is a pristine byte range captured by Seal and re-applied over
// dirty pages by Reset (the static data + code image of a machine).
type Segment struct {
	Base  uint64
	Bytes []byte
}

// Memory is a flat address space with a bump-pointer heap and free lists.
type Memory struct {
	data   []byte
	little bool

	heapStart uint64
	brk       uint64
	stackTop  uint64
	sp        uint64

	// free lists per size class (power-of-two classes up to 1 MiB)
	free map[int][]uint64
	// sizes of live heap blocks, for free()
	blockSize map[uint64]uint64

	// Dirty-page tracking, armed by Seal: every mutation marks its pages
	// in the dirty bitmap (and, first time per page, the dirty list), so
	// Reset restores pristine state touching only what the run wrote.
	// Untracked memories (the default) pay one branch per mutation.
	track     bool
	dirty     []uint64 // bitmap, one bit per page
	dirtyList []uint32 // pages marked since the last Reset, unordered

	// State captured by Seal and re-applied by Reset.
	sealed        []Segment
	sealHeapStart uint64
	sealBrk       uint64
	sealSP        uint64
	sealBlocks    map[uint64]uint64 // nil when no heap blocks were live at Seal
	sealFree      map[int][]uint64  // nil when all free lists were empty at Seal
}

// mapBytes is New's source of demand-zero address space; a variable so
// the tests can drive the make fallback over the whole suite.
var mapBytes = mapAnon

// New creates a memory of the given size (0 means DefaultSize) with the
// given byte order. The heap initially starts right after the null guard;
// call SetHeapStart after loading static segments.
//
// The space is demand-zero where the platform maps it (unix): New costs
// microseconds and a few hundred bytes at any size, and a page costs
// memory from its first touch until the Memory is collected. Elsewhere,
// or when the mapping is refused, the whole size is allocated and cleared
// here.
func New(size uint64, littleEndian bool) *Memory {
	if size == 0 {
		size = DefaultSize
	}
	data, err := mapBytes(size)
	mapped := err == nil
	if !mapped {
		data = make([]byte, size)
	}
	m := &Memory{
		data:      data,
		little:    littleEndian,
		heapStart: NullGuard,
		brk:       NullGuard,
		stackTop:  size,
		sp:        size,
		free:      make(map[int][]uint64),
		blockSize: make(map[uint64]uint64),
	}
	if mapped {
		runtime.SetFinalizer(m, func(m *Memory) { unmap(m.data) })
	}
	return m
}

// Size returns the total address-space size.
func (m *Memory) Size() uint64 { return uint64(len(m.data)) }

// LittleEndian reports the configured byte order.
func (m *Memory) LittleEndian() bool { return m.little }

// SetHeapStart moves the heap break above the static segments. It must be
// called before any allocation.
func (m *Memory) SetHeapStart(addr uint64) {
	addr = (addr + 15) &^ 15
	m.heapStart = addr
	m.brk = addr
}

// HeapUsed returns the number of heap bytes ever allocated.
func (m *Memory) HeapUsed() uint64 { return m.brk - m.heapStart }

// SP returns the current stack pointer.
func (m *Memory) SP() uint64 { return m.sp }

// SetSP sets the stack pointer (used by call frames). It faults if the
// stack would collide with the heap.
func (m *Memory) SetSP(sp uint64) error {
	if sp > m.stackTop || sp < m.brk+NullGuard {
		return &Fault{Addr: sp, Size: 0, Op: "alloc"}
	}
	m.sp = sp
	return nil
}

// PushStack allocates n bytes on the stack (16-byte aligned) and returns
// the new stack pointer, which is also the address of the allocation.
func (m *Memory) PushStack(n uint64) (uint64, error) {
	sp := (m.sp - n) &^ 15
	if err := m.SetSP(sp); err != nil {
		return 0, err
	}
	return sp, nil
}

// inRange is the bounds rule of every access: [addr, addr+size) lies above
// the null guard, inside the space, and does not wrap.
func (m *Memory) inRange(addr, size uint64) bool {
	return addr >= NullGuard && addr+size <= uint64(len(m.data)) && addr+size >= addr
}

func (m *Memory) check(addr uint64, size int, op string) error {
	if !m.inRange(addr, uint64(size)) {
		return &Fault{Addr: addr, Size: size, Op: op}
	}
	return nil
}

// Load reads size (1, 2, 4 or 8) bytes at addr as an unsigned integer.
func (m *Memory) Load(addr uint64, size int) (uint64, error) {
	if err := m.check(addr, size, "load"); err != nil {
		return 0, err
	}
	b := m.data[addr : addr+uint64(size)]
	switch size {
	case 1:
		return uint64(b[0]), nil
	case 2:
		if m.little {
			return uint64(binary.LittleEndian.Uint16(b)), nil
		}
		return uint64(binary.BigEndian.Uint16(b)), nil
	case 4:
		if m.little {
			return uint64(binary.LittleEndian.Uint32(b)), nil
		}
		return uint64(binary.BigEndian.Uint32(b)), nil
	case 8:
		if m.little {
			return binary.LittleEndian.Uint64(b), nil
		}
		return binary.BigEndian.Uint64(b), nil
	}
	return 0, &Fault{Addr: addr, Size: size, Op: "load"}
}

// Store writes size (1, 2, 4 or 8) bytes at addr.
func (m *Memory) Store(addr uint64, size int, v uint64) error {
	if err := m.check(addr, size, "store"); err != nil {
		return err
	}
	if m.track {
		m.markDirty(addr, uint64(size))
	}
	b := m.data[addr : addr+uint64(size)]
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		if m.little {
			binary.LittleEndian.PutUint16(b, uint16(v))
		} else {
			binary.BigEndian.PutUint16(b, uint16(v))
		}
	case 4:
		if m.little {
			binary.LittleEndian.PutUint32(b, uint32(v))
		} else {
			binary.BigEndian.PutUint32(b, uint32(v))
		}
	case 8:
		if m.little {
			binary.LittleEndian.PutUint64(b, v)
		} else {
			binary.BigEndian.PutUint64(b, v)
		}
	default:
		return &Fault{Addr: addr, Size: size, Op: "store"}
	}
	return nil
}

// The width-specific accessors below are the common case of Load and Store
// with everything but the address resolved by the caller: the simulated
// processor picks one per instruction when it predecodes a block, having
// read LittleEndian once, so each is small enough to inline into its
// dispatch loop. They are for little-endian memories only. ok is false,
// with nothing read, written or marked, when the access is not that common
// case: it is out of range or, for a store under dirty tracking, it would
// mark a page. The caller then repeats it through Load or Store, which
// faults or marks as ever; the bounds rule (inRange) and the dirty map are
// the same ones.

// LoadLE8 reads the byte at addr.
func (m *Memory) LoadLE8(addr uint64) (v uint64, ok bool) {
	if !m.inRange(addr, 1) {
		return 0, false
	}
	return uint64(m.data[addr]), true
}

// LoadLE16 reads the 2 bytes at addr.
func (m *Memory) LoadLE16(addr uint64) (v uint64, ok bool) {
	if !m.inRange(addr, 2) {
		return 0, false
	}
	return uint64(binary.LittleEndian.Uint16(m.data[addr:])), true
}

// LoadLE32 reads the 4 bytes at addr.
func (m *Memory) LoadLE32(addr uint64) (v uint64, ok bool) {
	if !m.inRange(addr, 4) {
		return 0, false
	}
	return uint64(binary.LittleEndian.Uint32(m.data[addr:])), true
}

// LoadLE64 reads the 8 bytes at addr.
func (m *Memory) LoadLE64(addr uint64) (v uint64, ok bool) {
	if !m.inRange(addr, 8) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(m.data[addr:]), true
}

// marked reports whether a store to the in-range [addr, addr+n) leaves the
// dirty map as it is: tracking is off, or the bytes lie in one page that
// is already dirty.
func (m *Memory) marked(addr, n uint64) bool {
	p := addr >> PageShift
	return !m.track || (addr+n-1)>>PageShift == p && m.dirty[p>>6]>>(p&63)&1 != 0
}

// StoreLE8 writes the low byte of v at addr.
func (m *Memory) StoreLE8(addr, v uint64) (ok bool) {
	if !m.inRange(addr, 1) || !m.marked(addr, 1) {
		return false
	}
	m.data[addr] = byte(v)
	return true
}

// StoreLE16 writes the low 2 bytes of v at addr.
func (m *Memory) StoreLE16(addr, v uint64) (ok bool) {
	if !m.inRange(addr, 2) || !m.marked(addr, 2) {
		return false
	}
	binary.LittleEndian.PutUint16(m.data[addr:], uint16(v))
	return true
}

// StoreLE32 writes the low 4 bytes of v at addr.
func (m *Memory) StoreLE32(addr, v uint64) (ok bool) {
	if !m.inRange(addr, 4) || !m.marked(addr, 4) {
		return false
	}
	binary.LittleEndian.PutUint32(m.data[addr:], uint32(v))
	return true
}

// StoreLE64 writes v at addr.
func (m *Memory) StoreLE64(addr, v uint64) (ok bool) {
	if !m.inRange(addr, 8) || !m.marked(addr, 8) {
		return false
	}
	binary.LittleEndian.PutUint64(m.data[addr:], v)
	return true
}

// LoadFloat reads a float (size 4) or double (size 8) at addr.
func (m *Memory) LoadFloat(addr uint64, size int) (float64, error) {
	v, err := m.Load(addr, size)
	if err != nil {
		return 0, err
	}
	if size == 4 {
		return float64(math.Float32frombits(uint32(v))), nil
	}
	return math.Float64frombits(v), nil
}

// StoreFloat writes a float (size 4) or double (size 8) at addr.
func (m *Memory) StoreFloat(addr uint64, size int, v float64) error {
	if size == 4 {
		return m.Store(addr, 4, uint64(math.Float32bits(float32(v))))
	}
	return m.Store(addr, 8, math.Float64bits(v))
}

// Bytes returns a direct view of n bytes at addr for bulk access. The
// view is writable, so under dirty tracking the whole range is
// conservatively marked dirty.
func (m *Memory) Bytes(addr, n uint64) ([]byte, error) {
	if err := m.check(addr, int(n), "load"); err != nil {
		return nil, err
	}
	if m.track {
		m.markDirty(addr, n)
	}
	return m.data[addr : addr+n], nil
}

// WriteBytes copies b into memory at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) error {
	if err := m.check(addr, len(b), "store"); err != nil {
		return err
	}
	if m.track {
		m.markDirty(addr, uint64(len(b)))
	}
	copy(m.data[addr:], b)
	return nil
}

// CBytes returns a direct view of the NUL-terminated byte string at
// addr (capped at 1 MiB, like CString) without materializing a Go
// string. The view aliases memory: callers must consume it before the
// guest runs again.
func (m *Memory) CBytes(addr uint64) ([]byte, error) {
	const limit = 1 << 20
	if err := m.check(addr, 1, "load"); err != nil {
		return nil, err
	}
	end := addr
	max := addr + limit
	if max > uint64(len(m.data)) {
		max = uint64(len(m.data))
	}
	for end < max && m.data[end] != 0 {
		end++
	}
	return m.data[addr:end:end], nil
}

// CString reads a NUL-terminated string at addr (capped at 1 MiB).
func (m *Memory) CString(addr uint64) (string, error) {
	const limit = 1 << 20
	if err := m.check(addr, 1, "load"); err != nil {
		return "", err
	}
	end := addr
	max := addr + limit
	if max > uint64(len(m.data)) {
		max = uint64(len(m.data))
	}
	for end < max && m.data[end] != 0 {
		end++
	}
	return string(m.data[addr:end]), nil
}

// sizeClass returns the power-of-two size class index for n, or -1 for
// huge blocks.
func sizeClass(n uint64) int {
	if n > 1<<20 {
		return -1
	}
	c := 0
	s := uint64(16)
	for s < n {
		s <<= 1
		c++
	}
	return c
}

func classSize(c int) uint64 { return 16 << uint(c) }

// Alloc allocates n bytes of heap memory (16-byte aligned, zeroed) and
// returns its address. Allocation of 0 bytes returns a unique non-null
// address.
func (m *Memory) Alloc(n uint64) (uint64, error) {
	if n == 0 {
		n = 1
	}
	// Nothing larger than the space fits, and refusing it here keeps the
	// rounding below from wrapping (malloc(-1) would round to 0).
	if n > uint64(len(m.data)) {
		return 0, &Fault{Addr: m.brk, Size: int(n), Op: "alloc"}
	}
	if c := sizeClass(n); c >= 0 {
		if lst := m.free[c]; len(lst) > 0 {
			addr := lst[len(lst)-1]
			m.free[c] = lst[:len(lst)-1]
			sz := classSize(c)
			if m.track {
				m.markDirty(addr, sz)
			}
			clear(m.data[addr : addr+sz])
			m.blockSize[addr] = sz
			return addr, nil
		}
		n = classSize(c)
	} else {
		n = (n + 15) &^ 15
	}
	// The bound is on the room left, never on addr+n, which a guest's
	// malloc(-4096) wraps to just below brk.
	addr := m.brk
	if m.sp < addr+NullGuard || n > m.sp-NullGuard-addr {
		return 0, &Fault{Addr: addr, Size: int(n), Op: "alloc"}
	}
	m.brk = addr + n
	m.blockSize[addr] = n
	return addr, nil
}

// markDirty records that [addr, addr+n) was (or may have been) written.
// Page-granular and idempotent; the common case — a small store inside
// an already-dirty page — is one shift, one mask test.
func (m *Memory) markDirty(addr, n uint64) {
	if n == 0 {
		return
	}
	for p := uint32(addr >> PageShift); p <= uint32((addr+n-1)>>PageShift); p++ {
		if w, b := p>>6, uint64(1)<<(p&63); m.dirty[w]&b == 0 {
			m.dirty[w] |= b
			m.dirtyList = append(m.dirtyList, p)
		}
	}
}

// Seal snapshots the current memory as the pristine state Reset returns
// to, and arms dirty-page tracking. segs name the byte ranges whose
// content must be restored (static data and installed code); everything
// outside them is zero at seal time by construction — sealing happens
// after image load and code install, before the first run — so Reset
// only has to zero dirty pages and re-copy the segments over them.
// Allocator state (heap break, SP, free lists) is captured too.
func (m *Memory) Seal(segs ...Segment) {
	m.sealed = m.sealed[:0]
	for _, s := range segs {
		m.sealed = append(m.sealed, Segment{Base: s.Base, Bytes: append([]byte(nil), s.Bytes...)})
	}
	m.sealHeapStart = m.heapStart
	m.sealBrk = m.brk
	m.sealSP = m.sp
	m.sealBlocks = nil
	if len(m.blockSize) > 0 {
		m.sealBlocks = make(map[uint64]uint64, len(m.blockSize))
		for a, sz := range m.blockSize {
			m.sealBlocks[a] = sz
		}
	}
	m.sealFree = nil
	for c, lst := range m.free {
		if len(lst) == 0 {
			continue
		}
		if m.sealFree == nil {
			m.sealFree = make(map[int][]uint64)
		}
		m.sealFree[c] = append([]uint64(nil), lst...)
	}
	pages := (len(m.data) + PageSize - 1) / PageSize
	if len(m.dirty) == 0 {
		m.dirty = make([]uint64, (pages+63)/64)
	}
	clear(m.dirty)
	m.dirtyList = m.dirtyList[:0]
	m.track = true
}

// Sealed reports whether Seal has armed dirty-page tracking.
func (m *Memory) Sealed() bool { return m.track }

// Reset restores the memory to its sealed pristine state, touching only
// dirty pages: each is zeroed, then any sealed segment bytes overlapping
// it are re-copied. Allocator state rolls back to the Seal snapshot. It
// returns the number of dirty pages restored — the unit reset cost
// scales with. Reset on an unsealed memory is a no-op.
func (m *Memory) Reset() int {
	if !m.track {
		return 0
	}
	n := len(m.dirtyList)
	for _, p := range m.dirtyList {
		lo := uint64(p) << PageShift
		hi := lo + PageSize
		if hi > uint64(len(m.data)) {
			hi = uint64(len(m.data))
		}
		clear(m.data[lo:hi])
		for _, s := range m.sealed {
			sLo, sHi := s.Base, s.Base+uint64(len(s.Bytes))
			if sHi <= lo || sLo >= hi {
				continue
			}
			cLo, cHi := max(lo, sLo), min(hi, sHi)
			copy(m.data[cLo:cHi], s.Bytes[cLo-sLo:cHi-sLo])
		}
		m.dirty[p>>6] &^= 1 << (p & 63)
	}
	m.dirtyList = m.dirtyList[:0]
	m.heapStart = m.sealHeapStart
	m.brk = m.sealBrk
	m.sp = m.sealSP
	clear(m.blockSize)
	for a, sz := range m.sealBlocks {
		m.blockSize[a] = sz
	}
	for c, lst := range m.free {
		m.free[c] = lst[:0]
	}
	for c, lst := range m.sealFree {
		m.free[c] = append(m.free[c], lst...)
	}
	return n
}

// DirtyPages returns the number of pages written since Seal (or the
// last Reset); 0 when tracking is off.
func (m *Memory) DirtyPages() int { return len(m.dirtyList) }

// Free releases a heap block previously returned by Alloc. Freeing null is
// a no-op; freeing an unknown address faults.
func (m *Memory) Free(addr uint64) error {
	if addr == 0 {
		return nil
	}
	sz, ok := m.blockSize[addr]
	if !ok {
		return &Fault{Addr: addr, Size: 0, Op: "alloc"}
	}
	delete(m.blockSize, addr)
	if c := sizeClass(sz); c >= 0 && classSize(c) == sz {
		m.free[c] = append(m.free[c], addr)
	}
	return nil
}
