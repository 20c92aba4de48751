package rt

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"llva/internal/mem"
)

func newEnv() (*Env, *strings.Builder) {
	var out strings.Builder
	m := mem.New(1<<20, true)
	m.SetHeapStart(mem.NullGuard + 4096)
	return NewEnv(m, &out), &out
}

func TestPrintFamily(t *testing.T) {
	e, out := newEnv()
	e.Call("print_int", []uint64{uint64(^uint64(41) + 0)}) // -?? use explicit
	out.Reset()
	e.Call("print_int", []uint64{0xFFFFFFFFFFFFFFFF}) // -1
	e.Call("print_char", []uint64{' '})
	e.Call("print_uint", []uint64{42})
	e.Call("print_nl", nil)
	e.Call("print_float", []uint64{math.Float64bits(2.5)})
	if got := out.String(); got != "-1 42\n2.5000" {
		t.Errorf("output = %q", got)
	}
}

func TestStringsInMemory(t *testing.T) {
	e, _ := newEnv()
	p, err := e.Call("malloc", []uint64{16})
	if err != nil {
		t.Fatal(err)
	}
	e.Mem.WriteBytes(p, []byte("abc\x00"))
	n, err := e.Call("strlen", []uint64{p})
	if err != nil || n != 3 {
		t.Errorf("strlen = %d, %v", n, err)
	}
	q, _ := e.Call("malloc", []uint64{16})
	e.Mem.WriteBytes(q, []byte("abd\x00"))
	cmp, _ := e.Call("strcmp", []uint64{p, q})
	if int64(cmp) >= 0 {
		t.Errorf("strcmp(abc, abd) = %d, want negative", int64(cmp))
	}
}

func TestMemcpyMemset(t *testing.T) {
	e, _ := newEnv()
	src, _ := e.Call("malloc", []uint64{32})
	dst, _ := e.Call("malloc", []uint64{32})
	e.Mem.WriteBytes(src, []byte("0123456789"))
	if _, err := e.Call("memcpy", []uint64{dst, src, 10}); err != nil {
		t.Fatal(err)
	}
	b, _ := e.Mem.Bytes(dst, 10)
	if string(b) != "0123456789" {
		t.Errorf("memcpy result %q", b)
	}
	e.Call("memset", []uint64{dst, 'x', 4})
	b, _ = e.Mem.Bytes(dst, 10)
	if string(b) != "xxxx456789" {
		t.Errorf("memset result %q", b)
	}
	runtime.KeepAlive(e) // b is a view into e.Mem
}

// TestCallocOverflowFaults: calloc(n, size) whose product does not fit in
// 64 bits is a fault, not a block of the wrapped size. At the parent
// calloc(1<<32, 1<<32) multiplied to 0 and returned a live one-byte block.
func TestCallocOverflowFaults(t *testing.T) {
	e, _ := newEnv()
	for _, c := range [][2]uint64{{1 << 32, 1 << 32}, {^uint64(0), 2}, {3, 1<<63 + 1}, {^uint64(0), ^uint64(0)}} {
		p, err := e.Call("calloc", c[:])
		var flt *mem.Fault
		if !errors.As(err, &flt) || flt.Op != "alloc" {
			t.Errorf("calloc(%#x, %#x) = %#x, %v; want an alloc fault", c[0], c[1], p, err)
		}
	}
	if e.Mem.HeapUsed() != 0 {
		t.Errorf("faulted callocs used %d heap bytes", e.Mem.HeapUsed())
	}
	// pool_alloc hands its size to the same allocator.
	if p, err := e.Call("pool_alloc", []uint64{1, ^uint64(0) - 4095}); err == nil {
		t.Errorf("pool_alloc(1, -4096) = %#x, want a fault", p)
	}
	if p, err := e.Call("calloc", []uint64{4, 8}); err != nil || p == 0 {
		t.Errorf("calloc(4, 8) = %#x, %v", p, err)
	}
}

func TestRandDeterministic(t *testing.T) {
	e1, _ := newEnv()
	e2, _ := newEnv()
	e1.Call("srand", []uint64{99})
	e2.Call("srand", []uint64{99})
	for i := 0; i < 100; i++ {
		a, _ := e1.Call("rand", nil)
		b, _ := e2.Call("rand", nil)
		if a != b {
			t.Fatalf("rand diverged at %d: %d vs %d", i, a, b)
		}
	}
	// srand(0) must not wedge the generator
	e1.Call("srand", []uint64{0})
	v1, _ := e1.Call("rand", nil)
	v2, _ := e1.Call("rand", nil)
	if v1 == v2 {
		t.Error("rand stuck after srand(0)")
	}
}

func TestExitAndUnknown(t *testing.T) {
	e, _ := newEnv()
	_, err := e.Call("exit", []uint64{7})
	ee, ok := err.(*ExitError)
	if !ok || ee.Code != 7 {
		t.Errorf("exit: %v", err)
	}
	if _, err := e.Call("no_such_fn", nil); err == nil {
		t.Error("unknown extern did not error")
	}
	if e.Known("no_such_fn") {
		t.Error("Known(no_such_fn)")
	}
	if !e.Known("malloc") {
		t.Error("!Known(malloc)")
	}
}

func TestMathExterns(t *testing.T) {
	e, _ := newEnv()
	v, _ := e.Call("sqrt", []uint64{math.Float64bits(9)})
	if math.Float64frombits(v) != 3 {
		t.Errorf("sqrt(9) = %v", math.Float64frombits(v))
	}
	v, _ = e.Call("pow", []uint64{math.Float64bits(2), math.Float64bits(10)})
	if math.Float64frombits(v) != 1024 {
		t.Errorf("pow(2,10) = %v", math.Float64frombits(v))
	}
	v, _ = e.Call("fabs", []uint64{math.Float64bits(-1.5)})
	if math.Float64frombits(v) != 1.5 {
		t.Errorf("fabs(-1.5) = %v", math.Float64frombits(v))
	}
}

func TestSignaturesParse(t *testing.T) {
	// Every declared runtime function must actually exist in the env.
	e, _ := newEnv()
	for _, line := range strings.Split(Signatures(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// "declare <ret> %name(...)"
		start := strings.Index(line, "%")
		end := strings.Index(line, "(")
		if start < 0 || end < 0 {
			t.Fatalf("malformed signature line %q", line)
		}
		name := line[start+1 : end]
		if !e.Known(name) {
			t.Errorf("declared runtime function %q not registered", name)
		}
	}
}
