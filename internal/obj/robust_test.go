package obj

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"llva/internal/core"
	"llva/internal/minic"
)

// TestDecodeTruncated checks that every prefix of a valid object decodes
// to an error, never a panic or a silently-wrong module.
func TestDecodeTruncated(t *testing.T) {
	m, err := minic.Compile("t.c", `
struct S { int a; struct S *n; };
int f(struct S *s) { if (s == 0) return 0; return s->a + f(s->n); }
int main() { return f(0); }
`)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on %d-byte prefix: %v", n, r)
				}
			}()
			if _, err := Decode(data[:n]); err == nil {
				t.Errorf("Decode accepted a %d-byte prefix of a %d-byte object", n, len(data))
			}
		}()
	}
}

// TestDecodeBitFlips flips random bytes and requires Decode to either
// error out or produce a module (it may decode to something valid — bit
// flips in names or constants are not detectable — but it must never
// panic).
func TestDecodeBitFlips(t *testing.T) {
	m, err := minic.Compile("t.c", `
long mix(long a, long b) { return a * 31 + b; }
int main() { return (int)(mix(3, 4) % 100); }
`)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte(nil), data...)
		for k := 0; k < 1+r.Intn(4); k++ {
			mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("Decode panicked on mutated input (trial %d): %v", trial, rec)
				}
			}()
			dm, err := Decode(mut)
			if err == nil && dm != nil {
				// If it decoded, the result must at least be printable;
				// verification may legitimately fail.
				_ = core.Verify(dm)
			}
		}()
	}
}

func TestDecodeGarbage(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0, 1, 2, 3},
		[]byte("LLVA"),
		[]byte("not an object at all"),
		append([]byte{'L', 'L', 'V', 'A', Version, 3}, make([]byte, 64)...),
	}
	for i, in := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("input %d: panic %v", i, r)
				}
			}()
			if _, err := Decode(in); err == nil && len(in) < 16 {
				t.Errorf("input %d: garbage accepted", i)
			}
		}()
	}
}

// TestDecodeClaimedCounts feeds Decode objects whose counts claim far
// more entries than their bytes hold: each must end in an error, having
// allocated no more than a small object's worth, whatever the count.
func TestDecodeClaimedCounts(t *testing.T) {
	uv := func(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
	// header is an object up to its type table: no name, little-endian,
	// 64-bit pointers.
	header := []byte{'L', 'L', 'V', 'A', Version, 3, 0}
	// fn is a module of one defined function, void f(), whose body
	// follows: types void and void(), no globals, one function.
	fn := append(append([]byte(nil), header...),
		2, byte(core.VoidKind), byte(core.FunctionKind), 0, 0, 0,
		0, 1, 1, 'f', 1, 2)
	huge := []uint64{1 << 20, 1 << 27, 1 << 32, 1 << 62}
	cases := map[string]func(n uint64) []byte{
		"types": func(n uint64) []byte { return uv(append([]byte(nil), header...), n) },
		"struct fields": func(n uint64) []byte {
			// an unnamed struct with a body
			return append(uv(append(append([]byte(nil), header...), 1, byte(core.StructKind), 0), n), 1)
		},
		"function params": func(n uint64) []byte {
			return uv(append(append([]byte(nil), header...), 2, byte(core.VoidKind), byte(core.FunctionKind), 0), n)
		},
		"globals": func(n uint64) []byte {
			return uv(append(append([]byte(nil), header...), 1, byte(core.VoidKind)), n)
		},
		"functions": func(n uint64) []byte {
			return uv(append(append([]byte(nil), header...), 1, byte(core.VoidKind), 0), n)
		},
		"constant pool": func(n uint64) []byte { return uv(append([]byte(nil), fn...), n) },
		"blocks":        func(n uint64) []byte { return uv(append(append([]byte(nil), fn...), 0), n) },
		"instructions":  func(n uint64) []byte { return uv(append(append([]byte(nil), fn...), 0, 1), n) },
		"operands": func(n uint64) []byte {
			// ret, extended form, of type void
			return uv(append(append([]byte(nil), fn...), 0, 1, 1, byte(core.OpRet)<<2, 0), n)
		},
		"cases": func(n uint64) []byte {
			// mbr, extended form, no operands and no blocks
			return uv(append(append([]byte(nil), fn...), 0, 1, 1, byte(core.OpMbr)<<2, 0, 0, 0), n)
		},
		"aggregate": func(n uint64) []byte {
			// a global of type [4 x void] initialized by an array
			b := append(append([]byte(nil), header...),
				2, byte(core.VoidKind), byte(core.ArrayKind), 4, 0,
				1, 1, 'g', 1, 2, 0,
				byte(core.ConstArray), 1)
			return uv(b, n)
		},
	}
	var before, after runtime.MemStats
	for name, blob := range cases {
		for _, n := range huge {
			data := blob(n)
			runtime.ReadMemStats(&before)
			_, err := Decode(data)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s = %d: a %d-byte object decoded", name, n, len(data))
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("%s = %d: decoding a %d-byte object allocated %d bytes", name, n, len(data), grew)
			}
		}
	}
}
