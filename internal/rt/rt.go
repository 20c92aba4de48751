// Package rt implements the runtime environment of external (native)
// functions that LLVA programs may call — the analog of the paper's native
// libraries invokable from LLVA executables. The same environment backs
// both the reference interpreter and the simulated hardware processor, so
// a program produces identical output on either execution engine.
//
// All arguments and results cross the boundary as raw 64-bit words;
// floating-point values travel as their IEEE-754 bit patterns.
package rt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"llva/internal/mem"
)

// ErrExit matches any ExitError under errors.Is — for callers that only
// need "the program exited" without the concrete type (the exit code is
// still reachable with errors.As).
var ErrExit = errors.New("rt: program exited")

// ExitError signals that the program called exit(); it unwinds execution
// engines without being a fault.
type ExitError struct{ Code int }

func (e *ExitError) Error() string { return fmt.Sprintf("program exited with status %d", e.Code) }

// Is makes every ExitError match the ErrExit sentinel.
func (e *ExitError) Is(target error) bool { return target == ErrExit }

// Fn is a native function callable from LLVA code.
type Fn func(e *Env, args []uint64) (uint64, error)

// Env is a runtime environment instance. It is not safe for concurrent use
// by multiple execution engines.
type Env struct {
	Mem *mem.Memory
	Out io.Writer
	// Clock supplies the value returned by the clock() external; execution
	// engines set it to their instruction/cycle counter.
	Clock func() uint64

	rand uint64
	// fns is the per-env override table, allocated lazily by Register;
	// lookups fall back to the shared immutable defaultFns, so plain
	// environments (every session) never copy the whole extern table.
	// registrations counts Register calls (Registrations).
	fns           map[string]Fn
	registrations int
	// fmtBuf is the reusable number-formatting scratch of the print_*
	// externs; memBuf the bounce buffer of memcpy. Both grow to the
	// program's high-water mark and stay: the steady state of a
	// print-/copy-heavy guest allocates nothing.
	fmtBuf []byte
	memBuf []byte

	Stats struct {
		Calls  int
		Allocs int
		// PoolAllocs/PoolBytes count per-pool allocation activity from
		// the automatic pool allocation transformation.
		PoolAllocs map[uint64]int
		PoolBytes  map[uint64]uint64
	}
}

// defaultFns is the shared extern table every environment starts from.
// It is built once and never mutated after init: Register writes go to a
// per-env overlay, so constructing an Env costs no table copy.
var defaultFns = map[string]Fn{
	"print_int":   printInt,
	"print_uint":  printUint,
	"print_char":  printChar,
	"print_str":   printStr,
	"print_float": printFloat,
	"print_nl":    printNL,
	"malloc":      doMalloc,
	"calloc":      doCalloc,
	"free":        doFree,
	"memcpy":      doMemcpy,
	"memset":      doMemset,
	"strlen":      doStrlen,
	"strcmp":      doStrcmp,
	"pool_alloc":  doPoolAlloc,
	"pool_free":   doPoolFree,
	"exit":        doExit,
	"abort":       doAbort,
	"clock":       doClock,
	"srand":       doSrand,
	"rand":        doRand,
	"sqrt":        doSqrt,
	"fabs":        doFabs,
	"exp":         doExp,
	"log":         doLog,
	"pow":         doPow,
	"sin":         doSin,
	"cos":         doCos,
}

// NewEnv creates an environment over the given memory writing program
// output to out.
func NewEnv(m *mem.Memory, out io.Writer) *Env {
	e := &Env{Mem: m, Out: out, rand: 88172645463325252}
	e.Clock = func() uint64 { return 0 }
	return e
}

// Reset re-arms the environment for a fresh run writing to out: the
// deterministic RNG returns to its seed and the call/alloc statistics
// zero (pool maps drop to nil, matching a fresh Env's lazy allocation),
// so a reused environment is indistinguishable from a new one. The
// Clock binding, registered overrides and the formatting/bounce scratch
// buffers are kept — they carry no run-visible state.
func (e *Env) Reset(out io.Writer) {
	e.Out = out
	e.rand = 88172645463325252
	e.Stats.Calls = 0
	e.Stats.Allocs = 0
	e.Stats.PoolAllocs = nil
	e.Stats.PoolBytes = nil
}

// Register adds or overrides a native function (copy-on-write: the
// shared default table stays untouched).
func (e *Env) Register(name string, fn Fn) {
	if e.fns == nil {
		e.fns = make(map[string]Fn)
	}
	e.fns[name] = fn
	e.registrations++
}

// Registrations counts the Register calls so far. An execution engine
// that keeps what Lookup returned resolves again when it has moved: a
// name may mean another function now.
func (e *Env) Registrations() int { return e.registrations }

// Lookup returns the native function registered under name, or nil.
func (e *Env) Lookup(name string) Fn {
	if fn, ok := e.fns[name]; ok {
		return fn
	}
	return defaultFns[name]
}

// Known reports whether name is a registered native function.
func (e *Env) Known(name string) bool { return e.Lookup(name) != nil }

// Call invokes the named native function.
func (e *Env) Call(name string, args []uint64) (uint64, error) {
	fn := e.Lookup(name)
	if fn == nil {
		return 0, fmt.Errorf("rt: call to unknown external function %%%s", name)
	}
	return e.CallFn(fn, args)
}

// CallFn is Call for a function Lookup has already resolved: engines
// bind an external call site once and come here on every call.
func (e *Env) CallFn(fn Fn, args []uint64) (uint64, error) {
	e.Stats.Calls++
	return fn(e, args)
}

// Signatures returns the LLVA declarations for every runtime function, in
// assembly syntax, for inclusion in modules that call them.
func Signatures() string {
	return `declare void %print_int(long %v)
declare void %print_uint(ulong %v)
declare void %print_char(long %c)
declare void %print_str(sbyte* %s)
declare void %print_float(double %v)
declare void %print_nl()
declare sbyte* %malloc(ulong %n)
declare sbyte* %calloc(ulong %n, ulong %size)
declare void %free(sbyte* %p)
declare void %memcpy(sbyte* %dst, sbyte* %src, ulong %n)
declare void %memset(sbyte* %dst, long %c, ulong %n)
declare ulong %strlen(sbyte* %s)
declare long %strcmp(sbyte* %a, sbyte* %b)
declare sbyte* %pool_alloc(ulong %pool, ulong %n)
declare void %pool_free(ulong %pool, sbyte* %p)
declare void %exit(long %code)
declare void %abort()
declare ulong %clock()
declare void %srand(ulong %seed)
declare ulong %rand()
declare double %sqrt(double %x)
declare double %fabs(double %x)
declare double %exp(double %x)
declare double %log(double %x)
declare double %pow(double %x, double %y)
declare double %sin(double %x)
declare double %cos(double %x)
`
}

func arg(args []uint64, i int) uint64 {
	if i < len(args) {
		return args[i]
	}
	return 0
}

// emit writes the formatting scratch and keeps its storage for the next
// print. All print_* externs format with strconv/utf8 appenders into
// this buffer — byte-identical to the old fmt verbs (%d, %c, %.4f) but
// with zero steady-state allocations.
func (e *Env) emit(buf []byte) (uint64, error) {
	e.fmtBuf = buf[:0]
	_, err := e.Out.Write(buf)
	return 0, err
}

func printInt(e *Env, a []uint64) (uint64, error) {
	return e.emit(strconv.AppendInt(e.fmtBuf, int64(arg(a, 0)), 10))
}

func printUint(e *Env, a []uint64) (uint64, error) {
	return e.emit(strconv.AppendUint(e.fmtBuf, arg(a, 0), 10))
}

func printChar(e *Env, a []uint64) (uint64, error) {
	// utf8.AppendRune yields U+FFFD for invalid runes, matching %c.
	return e.emit(utf8.AppendRune(e.fmtBuf, rune(arg(a, 0))))
}

func printStr(e *Env, a []uint64) (uint64, error) {
	s, err := e.Mem.CBytes(arg(a, 0))
	if err != nil {
		return 0, err
	}
	// The view is written directly — no string materialization. Writers
	// do not retain the slice past Write.
	_, err = e.Out.Write(s)
	return 0, err
}

func printFloat(e *Env, a []uint64) (uint64, error) {
	// Fixed 4-decimal formatting keeps output deterministic across
	// engines and easy to diff ('f' with precision 4 is what %.4f
	// produces, including NaN/±Inf spellings).
	return e.emit(strconv.AppendFloat(e.fmtBuf, math.Float64frombits(arg(a, 0)), 'f', 4, 64))
}

var nlByte = []byte{'\n'}

func printNL(e *Env, a []uint64) (uint64, error) {
	_, err := e.Out.Write(nlByte)
	return 0, err
}

func doMalloc(e *Env, a []uint64) (uint64, error) {
	e.Stats.Allocs++
	return e.Mem.Alloc(arg(a, 0))
}

func doCalloc(e *Env, a []uint64) (uint64, error) {
	e.Stats.Allocs++
	hi, n := bits.Mul64(arg(a, 0), arg(a, 1))
	if hi != 0 {
		// A wrapped product would hand back a block smaller than asked.
		return 0, &mem.Fault{Addr: 0, Size: -1, Op: "alloc"}
	}
	return e.Mem.Alloc(n)
}

func doFree(e *Env, a []uint64) (uint64, error) {
	return 0, e.Mem.Free(arg(a, 0))
}

func doMemcpy(e *Env, a []uint64) (uint64, error) {
	n := arg(a, 2)
	if n == 0 {
		return 0, nil
	}
	src, err := e.Mem.Bytes(arg(a, 1), n)
	if err != nil {
		return 0, err
	}
	// Copy via the env's persistent bounce buffer so overlapping ranges
	// behave like memmove without allocating per call.
	if uint64(cap(e.memBuf)) < n {
		e.memBuf = make([]byte, n)
	}
	tmp := e.memBuf[:n]
	copy(tmp, src)
	return 0, e.Mem.WriteBytes(arg(a, 0), tmp)
}

func doMemset(e *Env, a []uint64) (uint64, error) {
	n := arg(a, 2)
	if n == 0 {
		return 0, nil
	}
	dst, err := e.Mem.Bytes(arg(a, 0), n)
	if err != nil {
		return 0, err
	}
	c := byte(arg(a, 1))
	for i := range dst {
		dst[i] = c
	}
	return 0, nil
}

func doStrlen(e *Env, a []uint64) (uint64, error) {
	s, err := e.Mem.CBytes(arg(a, 0))
	if err != nil {
		return 0, err
	}
	return uint64(len(s)), nil
}

func doStrcmp(e *Env, a []uint64) (uint64, error) {
	s1, err := e.Mem.CBytes(arg(a, 0))
	if err != nil {
		return 0, err
	}
	s2, err := e.Mem.CBytes(arg(a, 1))
	if err != nil {
		return 0, err
	}
	switch c := bytes.Compare(s1, s2); {
	case c < 0:
		return uint64(^uint64(0)), nil // -1
	case c > 0:
		return 1, nil
	}
	return 0, nil
}

// doPoolAlloc allocates from a per-structure pool (automatic pool
// allocation, paper Section 5.1). Pools are arena-like: pool_free is a
// no-op and memory is reclaimed when the pool is destroyed — which, in
// this runtime, is at program exit.
func doPoolAlloc(e *Env, a []uint64) (uint64, error) {
	if e.Stats.PoolAllocs == nil {
		e.Stats.PoolAllocs = make(map[uint64]int)
		e.Stats.PoolBytes = make(map[uint64]uint64)
	}
	pool, n := arg(a, 0), arg(a, 1)
	e.Stats.PoolAllocs[pool]++
	e.Stats.PoolBytes[pool] += n
	e.Stats.Allocs++
	return e.Mem.Alloc(n)
}

func doPoolFree(e *Env, a []uint64) (uint64, error) {
	// Arena semantics: individual frees are deferred to pool destruction.
	return 0, nil
}

func doExit(e *Env, a []uint64) (uint64, error) {
	return 0, &ExitError{Code: int(int64(arg(a, 0)))}
}

func doAbort(e *Env, a []uint64) (uint64, error) {
	return 0, fmt.Errorf("rt: program aborted")
}

func doClock(e *Env, a []uint64) (uint64, error) { return e.Clock(), nil }

func doSrand(e *Env, a []uint64) (uint64, error) {
	s := arg(a, 0)
	if s == 0 {
		s = 88172645463325252
	}
	e.rand = s
	return 0, nil
}

// doRand is a deterministic xorshift64 generator, identical on every
// engine and platform.
func doRand(e *Env, a []uint64) (uint64, error) {
	x := e.rand
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	e.rand = x
	return x >> 1, nil
}

func f1(fn func(float64) float64) Fn {
	return func(e *Env, a []uint64) (uint64, error) {
		return math.Float64bits(fn(math.Float64frombits(arg(a, 0)))), nil
	}
}

var (
	doSqrt = f1(math.Sqrt)
	doFabs = f1(math.Abs)
	doExp  = f1(math.Exp)
	doLog  = f1(math.Log)
	doSin  = f1(math.Sin)
	doCos  = f1(math.Cos)
)

func doPow(e *Env, a []uint64) (uint64, error) {
	return math.Float64bits(math.Pow(
		math.Float64frombits(arg(a, 0)), math.Float64frombits(arg(a, 1)))), nil
}
