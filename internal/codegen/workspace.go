package codegen

import (
	"slices"
	"sync"

	"llva/internal/target"
)

// workspace holds every scratch table lowering one function uses, so
// that a translation allocates only what it returns: the NativeFunc, its
// code, relocations and block table. Each stage sizes and clears the
// tables it writes before it writes them; nothing is carried from one
// function to the next but the arrays' capacity. A workspace serves one
// lowering at a time: TranslateFunction takes one from the pool for the
// call and puts it back once layout has copied the outputs out.
type workspace struct {
	// sel is the selector of the function being lowered (newSelector).
	sel selector

	// The function's machine code moves between two buffers: selection
	// fills code (and coalescing compacts it in place), rewriteWithSlots
	// writes the allocated code into code2, and addFrame writes the
	// prologue, the body and the epilogue back into code. start and
	// start2 are the block start tables that go with them.
	code, code2   []target.MInstr
	start, start2 []int

	// selection
	vals      []valInfo
	blockIdx  []int32
	vFP       []bool
	argRegs   []target.Reg
	callArgs  []target.Reg
	blockHeat []uint64
	entry     []target.MInstr
	consts    map[constKey]target.Reg

	// liveness and coalescing
	rows          liveRows
	succOff, succ []int32
	dense, ints   []int32
	adj           []uint64

	// allocation
	live    liveness
	callPos []int
	alloc   allocation
	backing []target.Reg
	active  []activeEntry

	// branch peepholes, the flags pass and layout
	flags flagsWalk
	seen  []int32
	next  []int
	offs  []int
}

// workspaces pools the workspaces of finished translations. A lowering
// that panicked leaves its workspace out: whatever it left half written
// is garbage, never the next function's input.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// zeroed returns buf as n zero elements, reusing its array when it holds
// n.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// emptied returns buf empty, with room for at least n elements.
func emptied[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n) }
