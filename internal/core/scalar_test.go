package core

import (
	"fmt"
	"math"
	"testing"
)

// w is the canonical word of a negative literal.
func w(v int64) uint64 { return uint64(v) }

// TestScalarPinnedRules pins LLVA's scalar edge rules (DESIGN.md, "Scalar
// semantics") to literal words. The interpreter, both simulated
// processors and the constant folder all compute with core.Scalar, so a
// differential test between them cannot see a wrong rule; these rows are
// the independent oracle. Each is checked through the folder's public
// API. A nil row is an operation that faults: it must not fold.
func TestScalarPinnedRules(t *testing.T) {
	c := ctx()
	ints := []*Type{c.SByte(), c.UByte(), c.Short(), c.UShort(), c.Int(), c.UInt(), c.Long(), c.ULong()}
	word := func(k *Constant) string {
		if k == nil {
			return "no fold"
		}
		return fmt.Sprintf("%#x", uint64(k.Int64()))
	}

	// Float to int: NaN is 0, out-of-range values saturate at the
	// destination's own range, in-range values truncate toward zero.
	// Columns: sbyte, ubyte, short, ushort, int, uint, long, ulong.
	const maxI64, maxU64 = math.MaxInt64, math.MaxUint64
	casts := []struct {
		f    float64
		want [8]uint64
	}{
		{math.NaN(), [8]uint64{0, 0, 0, 0, 0, 0, 0, 0}},
		{math.Inf(1), [8]uint64{127, 255, 32767, 65535, 2147483647, 4294967295, maxI64, maxU64}},
		{math.Inf(-1), [8]uint64{w(-128), 0, w(-32768), 0, w(-2147483648), 0, 1 << 63, 0}},
		{0, [8]uint64{0, 0, 0, 0, 0, 0, 0, 0}},
		{math.Copysign(0, -1), [8]uint64{0, 0, 0, 0, 0, 0, 0, 0}},
		{-1, [8]uint64{w(-1), 0, w(-1), 0, w(-1), 0, w(-1), 0}},
		{-2.75, [8]uint64{w(-2), 0, w(-2), 0, w(-2), 0, w(-2), 0}},
		{200.5, [8]uint64{127, 200, 200, 200, 200, 200, 200, 200}},
		{0x1p63, [8]uint64{127, 255, 32767, 65535, 2147483647, 4294967295, maxI64, 1 << 63}},
		{0x1p64, [8]uint64{127, 255, 32767, 65535, 2147483647, 4294967295, maxI64, maxU64}},
		{1e30, [8]uint64{127, 255, 32767, 65535, 2147483647, 4294967295, maxI64, maxU64}},
		{-1e30, [8]uint64{w(-128), 0, w(-32768), 0, w(-2147483648), 0, 1 << 63, 0}},
	}
	for _, r := range casts {
		for i, to := range ints {
			got := FoldCast(NewFloat(c.Double(), r.f), to)
			if want := fmt.Sprintf("%#x", r.want[i]); word(got) != want {
				t.Errorf("cast double %v to %s = %s, want %s", r.f, to, word(got), want)
			}
		}
	}

	// Division: a zero divisor faults at every width; MinInt / -1 faults
	// at 64 bits and wraps at narrower ones, where the quotient fits the
	// word it is computed in.
	type row struct {
		name string
		got  *Constant
		want string
	}
	var rows []row
	bin := func(op Opcode, t *Type, x, y uint64, want string) {
		rows = append(rows, row{fmt.Sprintf("%s %s %#x, %#x", op, t, x, y),
			FoldBinary(c, op, NewUint(t, x), NewUint(t, y)), want})
	}
	for _, t := range ints {
		bin(OpDiv, t, 7, 0, "no fold")
		bin(OpRem, t, 7, 0, "no fold")
	}
	for _, d := range []struct {
		t        *Type
		min      uint64
		quotient string
	}{
		{c.SByte(), w(-128), "0xffffffffffffff80"},
		{c.Short(), w(-32768), "0xffffffffffff8000"},
		{c.Int(), w(-2147483648), "0xffffffff80000000"},
		{c.Long(), 1 << 63, "no fold"},
	} {
		bin(OpDiv, d.t, d.min, w(-1), d.quotient)
		rem := "0x0"
		if d.quotient == "no fold" {
			rem = "no fold"
		}
		bin(OpRem, d.t, d.min, w(-1), rem)
	}

	// Shifts by the width or more shift every bit out: 0, or -1 for an
	// arithmetic right shift of a negative value. One below the width is
	// an ordinary shift.
	shift := func(op Opcode, t *Type, x, amt uint64, want string) {
		rows = append(rows, row{fmt.Sprintf("%s %s %#x, %d", op, t, x, amt),
			FoldShift(op, NewUint(t, x), NewUint(c.UByte(), amt)), want})
	}
	for _, s := range []struct {
		t          *Type
		bits       uint64
		top        uint64 // the word of 1 << (bits-1)
		shrTopLast string // top >> (bits-1)
		shrTopOver string // top >> bits, bits+1 and 255
	}{
		{c.SByte(), 8, w(-128), "0xffffffffffffffff", "0xffffffffffffffff"},
		{c.UByte(), 8, 0x80, "0x1", "0x0"},
		{c.Short(), 16, w(-32768), "0xffffffffffffffff", "0xffffffffffffffff"},
		{c.UShort(), 16, 0x8000, "0x1", "0x0"},
		{c.Int(), 32, w(-2147483648), "0xffffffffffffffff", "0xffffffffffffffff"},
		{c.UInt(), 32, 0x80000000, "0x1", "0x0"},
		{c.Long(), 64, 1 << 63, "0xffffffffffffffff", "0xffffffffffffffff"},
		{c.ULong(), 64, 1 << 63, "0x1", "0x0"},
	} {
		shift(OpShl, s.t, 1, s.bits-1, fmt.Sprintf("%#x", s.top))
		shift(OpShr, s.t, s.top, s.bits-1, s.shrTopLast)
		for _, amt := range []uint64{s.bits, s.bits + 1, 255} {
			shift(OpShl, s.t, 1, amt, "0x0")
			shift(OpShr, s.t, s.top, amt, s.shrTopOver)
		}
	}
	for _, r := range rows {
		if word(r.got) != r.want {
			t.Errorf("%s = %s, want %s", r.name, word(r.got), r.want)
		}
	}
}
