package target

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// none is an instruction with every register operand absent, the way
// DecodeFrom leaves the operands an opcode does not encode.
func none(in MInstr) MInstr {
	set := func(r *Reg) {
		if *r == 0 {
			*r = NoReg
		}
	}
	set(&in.Rd)
	set(&in.Rs1)
	set(&in.Rs2)
	set(&in.Base)
	set(&in.Index)
	return in
}

// roundTripCases lists, for every opcode, instructions covering each
// operand shape its encoding distinguishes. Registers are nonzero so that
// none() can tell a used operand from an absent one; field values are
// what the encoding can carry on d: vsparc constant moves are 16-bit
// chunks, and ALU, compare and setcc immediates lie at the edges of d's
// range.
func roundTripCases(d *Desc) map[MOp][]MInstr {
	r, f := Reg(7), FPBase+9
	movi := []MInstr{
		{Op: MMovRI, Rd: r, Imm: math.MinInt64},
		{Op: MMovRI, Rd: f, Imm: math.MaxInt64, FP: true},
	}
	if d.WordSize == 4 {
		movi = []MInstr{
			{Op: MMovRI, Rd: r, Imm: 0xffff, Scale: 3},
			{Op: MMovRI, Rd: r, Imm: 0x1234, HasImm: true},
		}
	}
	mem := func(op MOp, in MInstr) []MInstr {
		in.Op = op
		a, b := in, in
		a.Base, a.Disp, a.Size = r, math.MinInt32, 8
		b.Base, b.Index, b.Scale, b.Disp, b.Size, b.NoTrap = d.FP, Reg(9), 8, math.MaxInt32, 1, true
		if op == MLea {
			a.Size, b.Size = 0, 0
		}
		return []MInstr{a, b}
	}
	var branches []MInstr
	for _, t := range []int32{0, -1, 6, math.MinInt32, math.MaxInt32} {
		branches = append(branches,
			MInstr{Op: MJmp, Target: t},
			MInstr{Op: MJcc, Cnd: CondLE, Rs1: r, Target: t},
			MInstr{Op: MJcc, Cnd: CondEQ, Target: t, Signed: true, FP: true},
			MInstr{Op: MCall, Target: t},
			MInstr{Op: MCallExt, NArgs: 255, Target: t},
			MInstr{Op: MInvokePush, Target: t},
		)
	}
	cases := map[MOp][]MInstr{
		MNop:       {{Op: MNop}},
		MRet:       {{Op: MRet}},
		MInvokePop: {{Op: MInvokePop}},
		MUnwind:    {{Op: MUnwind}},
		MMovRR:     {{Op: MMovRR, Rd: r, Rs1: Reg(63)}, {Op: MMovRR, Rd: f, Rs1: FPBase + 63, FP: true}},
		MMovRI:     movi,
		MLoad:      mem(MLoad, MInstr{Rd: r, Signed: true}),
		MStore:     mem(MStore, MInstr{Rs1: f, FP: true}),
		MLea:       mem(MLea, MInstr{Rd: r}),
		MALU: {
			{Op: MALU, Alu: AShr, Size: 4, Rd: r, Rs1: Reg(8), Rs2: Reg(9), Signed: true},
			{Op: MALU, Alu: AAdd, Size: 8, Rd: r, Rs1: r, HasImm: true, Imm: -d.MaxImm - 1},
			{Op: MALU, Alu: AShl, Size: 4, Rd: r, Rs1: r, HasImm: true, Imm: d.MaxImm},
			{Op: MALU, Alu: ADiv, Size: 8, Rd: f, Rs1: f, HasMem: true, FP: true,
				Base: d.FP, Index: Reg(9), Scale: 4, Disp: -24},
		},
		MCmp: {
			{Op: MCmp, Rs1: r, Rs2: Reg(8), Signed: true},
			{Op: MCmp, Rs1: r, HasImm: true, Imm: d.MaxImm},
			{Op: MCmp, Rs1: r, HasImm: true, Imm: -d.MaxImm - 1, Signed: true},
		},
		MSetCC: {
			{Op: MSetCC, Cnd: CondGT, Rd: r, Rs1: Reg(8), Rs2: Reg(9)},
			{Op: MSetCC, Cnd: CondNE, Rd: r},
			{Op: MSetCC, Cnd: CondLE, Rd: r, Rs1: Reg(8), HasImm: true, Imm: -d.MaxImm - 1, Signed: true},
			{Op: MSetCC, Cnd: CondEQ, Rd: r, Rs1: Reg(8), HasImm: true, Imm: d.MaxImm},
		},
		MCallInd: {{Op: MCallInd, Rs1: r}},
		MPush:    {{Op: MPush, Rs1: d.FP}},
		MPop:     {{Op: MPop, Rd: d.FP}},
		MCvt: {
			{Op: MCvt, Cvt: CvtIntExt, Size: 2, Rd: r, Rs1: Reg(8), Signed: true},
			{Op: MCvt, Cvt: CvtFToF, Size: 4, Rd: f, Rs1: f, FP: true},
		},
		MTrap:  {{Op: MTrap, Imm: 2}, {Op: MTrap, Imm: math.MinInt32}},
		MAdjSP: {{Op: MAdjSP, Imm: -4096}, {Op: MAdjSP, Imm: math.MaxInt32}},
	}
	for _, in := range branches {
		cases[in.Op] = append(cases[in.Op], in)
	}
	if d.HasFlags {
		// ALU ops that set the flags, in each second source.
		cases[MALU] = append(cases[MALU],
			MInstr{Op: MALU, Alu: AAnd, Size: 8, Rd: r, Rs1: r, Rs2: Reg(9), SetsFlags: true},
			MInstr{Op: MALU, Alu: AShl, Size: 1, Rd: r, Rs1: r, HasImm: true, Imm: 7, SetsFlags: true, Signed: true},
			MInstr{Op: MALU, Alu: ASub, Size: 4, Rd: r, Rs1: r, HasMem: true, SetsFlags: true,
				Base: d.FP, Index: NoReg, Disp: -8})
	}
	return cases
}

// symbolCase is an instruction whose symbol relocates one of its fields,
// and the relocation that must report it.
type symbolCase struct {
	in   MInstr
	kind RelocKind
}

// symbolCases lists, on d, an instruction for every shape with a field a
// symbol relocates.
func symbolCases(d *Desc) []symbolCase {
	r := Reg(7)
	lo, hi := RelocAbs, RelocAbs
	if d.WordSize == 4 {
		lo, hi = RelocLo16, RelocHi16
	}
	return []symbolCase{
		{MInstr{Op: MMovRI, Rd: r, Sym: "g"}, hi},
		{MInstr{Op: MMovRI, Rd: r, HasImm: true, Sym: "g"}, lo},
		{MInstr{Op: MLoad, Rd: r, Index: Reg(9), Scale: 4, Size: 4, Disp: 40, Sym: "g"}, RelocDisp32},
		{MInstr{Op: MStore, Rs1: r, Size: 8, Disp: -8, Sym: "g"}, RelocDisp32},
		{MInstr{Op: MLea, Rd: r, Disp: 16, Sym: "g"}, RelocDisp32},
		{MInstr{Op: MALU, Alu: AAdd, Size: 8, Rd: r, Rs1: r, HasMem: true, Disp: 8, Sym: "g"}, RelocDisp32},
		{MInstr{Op: MCall, Sym: "f"}, RelocCall},
		{MInstr{Op: MCallExt, NArgs: 2, Sym: "print_int"}, RelocExt},
	}
}

// shapeKey names one shape of an op's form, and whether the instruction
// carries a symbol.
type shapeKey struct {
	op  MOp
	src int
	sym bool
}

// keyOf is in's shape. An op without a memory or immediate second source
// has one shape, under srcReg.
func keyOf(in *MInstr) shapeKey {
	fm := &opForms[in.Op]
	k := srcReg
	switch {
	case in.HasImm:
		k = srcImm
	case in.HasMem:
		k = srcMem
	}
	if slices.Equal(fm.shapes[k].fields, fm.shapes[srcReg].fields) {
		k = srcReg
	}
	return shapeKey{in.Op, k, in.Sym != ""}
}

// TestEncodeDecodeRoundTrip: on both targets, every shape the form table
// admits — each op, each second source it has, with and without a
// symbol where a field takes one — has a case, and every case decodes to
// the instruction that was encoded, at EncodedLen's length, from any
// offset of a buffer, and fits the 16-byte fetch window. A symbol
// reports one relocation of its field's kind inside the instruction. The
// branch and call rows carry the extreme displacements: a jump the
// machine writes itself (InvalidateFunction) must reach a stub anywhere
// in the code segment, in either direction.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, d := range []*Desc{VX86, VSPARC} {
		var cases []symbolCase
		for _, cs := range roundTripCases(d) {
			for _, c := range cs {
				cases = append(cases, symbolCase{in: c})
			}
		}
		cases = append(cases, symbolCases(d)...)
		covered := map[shapeKey]bool{}
		for _, c := range cases {
			want := none(c.in)
			covered[keyOf(&want)] = true
			code, relocs := d.Encode(&want, []byte{0xEE, 0xEE, 0xEE})
			n := len(code) - 3
			if en, er := d.EncodedLen(&want); en != n || er != len(relocs) {
				t.Errorf("%s: %s: EncodedLen %d bytes, %d relocations; encoded %d, %d", d.Name, &want, en, er, n, len(relocs))
			}
			if n > 16 {
				t.Errorf("%s: %s encodes to %d bytes", d.Name, &want, n)
			}
			switch {
			case want.Sym == "" && len(relocs) != 0:
				t.Errorf("%s: %s: %d relocations for an instruction without a symbol", d.Name, &want, len(relocs))
			case want.Sym != "" && (len(relocs) != 1 || relocs[0].Kind != c.kind || relocs[0].Sym != want.Sym ||
				int(relocs[0].Offset) < 2 || int(relocs[0].Offset) >= n):
				t.Errorf("%s: %s: relocations %+v, want one of kind %d inside its %d bytes", d.Name, &want, relocs, c.kind, n)
			}
			var got MInstr
			gotN, err := d.DecodeFrom(code, 3, &got)
			if err != nil {
				t.Errorf("%s: %s: decode: %v", d.Name, &want, err)
				continue
			}
			want.Sym = "" // a decoded instruction knows no symbols
			if got != want || gotN != n {
				t.Errorf("%s: decoded %+v (%d bytes), encoded %+v (%d bytes)", d.Name, got, gotN, want, n)
			}
		}
		for op := MOp(0); op < mOpCount; op++ {
			fm := &opForms[op]
			for k, sh := range fm.shapes {
				if k != srcReg && slices.Equal(sh.fields, fm.shapes[srcReg].fields) {
					continue
				}
				symbolic := slices.ContainsFunc(sh.fields, func(f Field) bool {
					_, _, ok := d.reloc(&MInstr{Sym: "g"}, f)
					return ok
				})
				for _, sym := range []bool{false, true} {
					if (!sym || symbolic) && !covered[shapeKey{op, k, sym}] {
						t.Errorf("%s: no round-trip case for %s shape %v (symbol %v)", d.Name, op, sh.fields, sym)
					}
				}
			}
		}
	}
}

// TestImmediateFieldWidth: an ALU, compare or setcc immediate takes the
// narrowest field that holds the target's range (vsparc's simm13 two
// bytes, vx86's int32 four), and one outside the range panics instead of
// being truncated.
func TestImmediateFieldWidth(t *testing.T) {
	r := Reg(7)
	for _, c := range []struct {
		d     *Desc
		bytes int
	}{{VSPARC, 2}, {VX86, 4}} {
		d := c.d
		for _, shape := range []MInstr{
			{Op: MALU, Alu: AAdd, Size: 8, Rd: r, Rs1: r},
			{Op: MCmp, Rs1: r, Signed: true},
			{Op: MSetCC, Cnd: CondLT, Rd: r, Rs1: r},
		} {
			reg := none(shape)
			reg.Rs2 = Reg(9)
			regLen := len(encodeOnce(d, reg))
			for _, v := range []int64{0, d.MaxImm, -d.MaxImm - 1} {
				in := none(shape)
				in.HasImm, in.Imm = true, v
				if n := len(encodeOnce(d, in)); n != regLen-1+c.bytes {
					t.Errorf("%s: %s encodes to %d bytes, want %d", d.Name, &in, n, regLen-1+c.bytes)
				}
			}
			for _, v := range []int64{d.MaxImm + 1, -d.MaxImm - 2, math.MaxInt64, math.MinInt64} {
				in := none(shape)
				in.HasImm, in.Imm = true, v
				func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.Contains(msg, "outside "+d.Name+"'s range") {
							t.Errorf("%s: encoding %s panicked with %q, want an out-of-range panic", d.Name, &in, msg)
						}
					}()
					code := encodeOnce(d, in)
					t.Errorf("%s: %s encoded to % x", d.Name, &in, code)
				}()
			}
		}
	}
}

// encodeOnce returns in's encoding on d.
func encodeOnce(d *Desc, in MInstr) []byte {
	code, _ := d.Encode(&in, nil)
	return code
}

// TestRelocationsPatchWhatDecodeReads: a symbolic instruction reports its
// fixup at the offset Patch must write for DecodeFrom to read the value
// back, through the call target scale.
func TestRelocationsPatchWhatDecodeReads(t *testing.T) {
	for _, d := range []*Desc{VX86, VSPARC} {
		for _, c := range []struct {
			in   MInstr
			kind RelocKind
			val  uint64
			read func(MInstr) uint64
		}{
			{MInstr{Op: MCall, Sym: "f"}, RelocCall, math.MaxInt32 * uint64(d.CallTargetScale),
				func(in MInstr) uint64 { return uint64(in.Target) * uint64(d.CallTargetScale) }},
			{MInstr{Op: MCallExt, Sym: "print_int", NArgs: 1}, RelocExt, 12345,
				func(in MInstr) uint64 { return uint64(in.Target) }},
		} {
			code, relocs := d.Encode(&c.in, nil)
			if len(relocs) != 1 || relocs[0].Kind != c.kind || relocs[0].Sym != c.in.Sym {
				t.Fatalf("%s: %s: relocations %+v", d.Name, &c.in, relocs)
			}
			d.Patch(code, relocs[0].Offset, c.kind, c.val)
			var got MInstr
			_, err := d.DecodeFrom(code, 0, &got)
			if err != nil {
				t.Fatal(err)
			}
			if c.read(got) != c.val {
				t.Errorf("%s: %s patched with %d decodes to target %d", d.Name, &c.in, c.val, got.Target)
			}
		}
	}
}

// TestDisp32RelocAddsAddend: a vx86 memory operand that names a symbol
// reports one RelocDisp32 at its displacement, which Patch adds to the
// symbol's address, so the displacement the selector encoded is an
// addend (a field offset, a constant index, or a negative offset before
// the global). A sum outside the int32 range is a *RelocRangeError and
// leaves the code as it was.
func TestDisp32RelocAddsAddend(t *testing.T) {
	r := Reg(7)
	for _, in := range []MInstr{
		none(MInstr{Op: MLoad, Rd: r, Index: Reg(9), Scale: 4, Size: 4, Disp: 40, Sym: "arcs"}),
		none(MInstr{Op: MStore, Rs1: r, Size: 8, Disp: -8, Sym: "g"}),
		none(MInstr{Op: MLea, Rd: r, Index: Reg(9), Scale: 8, Disp: math.MaxInt32 - 0x1000, Sym: "g"}),
	} {
		code, relocs := VX86.Encode(&in, nil)
		if len(relocs) != 1 || relocs[0].Kind != RelocDisp32 || relocs[0].Sym != in.Sym {
			t.Fatalf("%s: relocations %+v, want one RelocDisp32 for @%s", &in, relocs, in.Sym)
		}
		const addr = 0x1000
		if err := VX86.Patch(code, relocs[0].Offset, RelocDisp32, addr); err != nil {
			t.Fatalf("%s: patch with %#x: %v", &in, addr, err)
		}
		var got MInstr
		_, err := VX86.DecodeFrom(code, 0, &got)
		if err != nil {
			t.Fatal(err)
		}
		want := in
		want.Sym, want.Disp = "", in.Disp+addr
		if got != want {
			t.Errorf("%s patched with %#x decodes to %s, want %s", &in, addr, &got, &want)
		}
		for _, val := range []uint64{math.MaxInt32, 1 << 32, 1 << 63, math.MaxUint64} {
			code, _ := VX86.Encode(&in, nil)
			before := string(code)
			err := VX86.Patch(code, relocs[0].Offset, RelocDisp32, val)
			if sum := int64(in.Disp) + int64(val); val < 1<<63 && sum == int64(int32(sum)) {
				if err != nil {
					t.Errorf("%s patched with %#x: %v", &in, val, err)
				}
				continue
			}
			var re *RelocRangeError
			if !errors.As(err, &re) || re.Kind != RelocDisp32 {
				t.Errorf("%s patched with %#x: err = %v, want a *RelocRangeError", &in, val, err)
			}
			if string(code) != before {
				t.Errorf("%s: a refused patch with %#x wrote the code", &in, val)
			}
		}
	}
}

// TestMemOperandSymString: a symbol on a memory operand prints as its
// base, as the disassembly of a global's element reads.
func TestMemOperandSymString(t *testing.T) {
	for _, c := range []struct {
		in   MInstr
		want string
	}{
		{none(MInstr{Op: MLoad, Rd: 12, Index: 7, Scale: 4, Size: 4, Sym: "arcs"}), "load.4 r12 [@arcs+r7*4+0]"},
		{none(MInstr{Op: MStore, Rs1: 3, Size: 8, Disp: 16, Sym: "g"}), "store.8 r3 [@g+-*0+16]"},
		{none(MInstr{Op: MLea, Rd: 6, Base: 5, Disp: -8}), "lea r6 [r5+-*0-8]"},
		{none(MInstr{Op: MMovRI, Rd: 6, Sym: "g"}), "movi r6 @g"},
	} {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// badEncodings are byte strings no instruction encodes to on d, each
// with the field DecodeFrom must name: an opcode, ALU operation,
// conversion or condition that does not exist, a flag bit outside the
// six defined ones, the flag-setting bit where SetsFlagsFits refuses it
// (an op other than MALU, a multiply or a shift by a register or by
// zero, and any ALU op on vsparc), a register byte with bit 7 set other
// than 0xFF, and on vsparc an immediate its 2-byte field holds but
// simm13 does not.
func badEncodings(d *Desc) []badEncoding {
	bad := []badEncoding{
		{[]byte{byte(mOpCount), 0}, FOp},
		{[]byte{0xFF, 0}, FOp},
		{[]byte{byte(MALU), 0, byte(aluOpCount), 8, 1, 2, 3}, FALU},
		{[]byte{byte(MCvt), 0, byte(cvtOpCount), 8, 1, 2}, FCvt},
		{[]byte{byte(MJcc), 0, byte(condCount), 1, 0, 0, 0, 0}, FCond},
		{[]byte{byte(MSetCC), 0, byte(condCount), 1, 2, 3}, FCond},
		{[]byte{byte(MNop), 0x20}, FFlags},
		{[]byte{byte(MRet), 0x80}, FFlags},
		{[]byte{byte(MMovRR), 0, 0x80, 1}, FRd},
		{[]byte{byte(MLoad), 0, 1, 2, 0xFE, 4, 8, 0, 0, 0, 0}, FMem},
		{[]byte{byte(MALU), fSetsFlags, byte(AMul), 8, 1, 2, 3}, FFlags},
		{[]byte{byte(MALU), fSetsFlags, byte(AShl), 8, 1, 2, 3}, FFlags},
		{[]byte{byte(MCmp), fSetsFlags, 1, 2}, FFlags},
	}
	if !d.HasFlags {
		bad = append(bad, badEncoding{[]byte{byte(MALU), fSetsFlags, byte(AAdd), 8, 1, 2, 3}, FFlags})
	} else {
		bad = append(bad, badEncoding{[]byte{byte(MALU), fSetsFlags | fHasImm, byte(AShr), 4, 1, 2, 0, 0, 0, 0}, FFlags})
	}
	if d.fieldLen(FImm) == 2 {
		bad = append(bad, badEncoding{[]byte{byte(MCmp), fHasImm, 1, 0x00, 0x10}, FImm}) // 4096
	}
	return bad
}

type badEncoding struct {
	b     []byte
	field Field
}

// TestDecodeTruncated: code is read from storage and from guest memory,
// so DecodeFrom sees arbitrary bytes. An instruction cut short anywhere,
// an offset outside the buffer, and bytes the encoder never writes are
// each a *DecodeError naming the field, never a panic.
func TestDecodeTruncated(t *testing.T) {
	refused := func(d *Desc, what string, b []byte, pos int) *DecodeError {
		var in MInstr
		_, err := d.DecodeFrom(b, pos, &in)
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Errorf("%s: %s: decoded to %s, err %v; want a *DecodeError", d.Name, what, &in, err)
		}
		return de
	}
	for _, d := range []*Desc{VX86, VSPARC} {
		for op, cs := range roundTripCases(d) {
			for _, c := range cs {
				in := none(c)
				code, _ := d.Encode(&in, nil)
				for cut := 0; cut < len(code); cut++ {
					refused(d, fmt.Sprintf("%s cut to %d of %d bytes", op, cut, len(code)), code[:cut], 0)
				}
				for _, pos := range []int{-1, len(code), len(code) + 1} {
					refused(d, fmt.Sprintf("%s at offset %d of %d bytes", op, pos, len(code)), code, pos)
				}
			}
		}
		for _, bad := range badEncodings(d) {
			if de := refused(d, fmt.Sprintf("% x", bad.b), bad.b, 0); de != nil && de.Field != bad.field {
				t.Errorf("%s: % x: refused the %s field, want %s", d.Name, bad.b, de.Field, bad.field)
			}
		}
	}
}
