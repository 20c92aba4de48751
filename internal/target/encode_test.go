package target

import (
	"math"
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
// what the encoding can carry on d (vsparc immediates are 16-bit chunks).
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
			{Op: MALU, Alu: AAdd, Size: 8, Rd: r, Rs1: r, HasImm: true, Imm: math.MinInt64},
			{Op: MALU, Alu: ADiv, Size: 8, Rd: f, Rs1: f, HasMem: true, FP: true,
				Base: d.FP, Index: Reg(9), Scale: 4, Disp: -24},
		},
		MCmp: {
			{Op: MCmp, Rs1: r, Rs2: Reg(8), Signed: true},
			{Op: MCmp, Rs1: r, HasImm: true, Imm: math.MaxInt64},
		},
		MSetCC:   {{Op: MSetCC, Cnd: CondGT, Rd: r, Rs1: Reg(8), Rs2: Reg(9)}, {Op: MSetCC, Cnd: CondNE, Rd: r}},
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
	return cases
}

// TestEncodeDecodeRoundTrip: on both targets, every opcode in every
// operand shape decodes to the instruction that was encoded, at its
// encoded length, from any offset of a buffer, and fits the 16-byte fetch
// window. The branch and call rows carry the extreme displacements: a
// jump the machine writes itself (InvalidateFunction) must reach a stub
// anywhere in the code segment, in either direction.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, d := range []*Desc{VX86, VSPARC} {
		cases := roundTripCases(d)
		for op := MOp(0); op < mOpCount; op++ {
			if len(cases[op]) == 0 {
				t.Errorf("%s: no round-trip case for %s", d.Name, op)
			}
			for _, c := range cases[op] {
				want := none(c)
				code, relocs := d.Encode(&want, []byte{0xEE, 0xEE, 0xEE})
				if len(relocs) != 0 {
					t.Errorf("%s: %s: %d relocations for an instruction without a symbol", d.Name, &want, len(relocs))
				}
				n := len(code) - 3
				if n > 16 {
					t.Errorf("%s: %s encodes to %d bytes", d.Name, &want, n)
				}
				got, gotN, err := d.DecodeFrom(code, 3)
				if err != nil {
					t.Errorf("%s: %s: decode: %v", d.Name, &want, err)
					continue
				}
				if got != want || gotN != n {
					t.Errorf("%s: decoded %+v (%d bytes), encoded %+v (%d bytes)", d.Name, got, gotN, want, n)
				}
			}
		}
	}
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
			got, _, err := d.Decode(code)
			if err != nil {
				t.Fatal(err)
			}
			if c.read(got) != c.val {
				t.Errorf("%s: %s patched with %d decodes to target %d", d.Name, &c.in, c.val, got.Target)
			}
		}
	}
}

// TestDecodeTruncated: code is read from storage and from guest memory,
// so DecodeFrom sees arbitrary bytes. An instruction cut short anywhere,
// an offset outside the buffer, and bytes that name no opcode, ALU
// operation, conversion or condition are errors, never panics.
func TestDecodeTruncated(t *testing.T) {
	for _, d := range []*Desc{VX86, VSPARC} {
		for op, cs := range roundTripCases(d) {
			for _, c := range cs {
				in := none(c)
				code, _ := d.Encode(&in, nil)
				for cut := 0; cut < len(code); cut++ {
					if _, _, err := d.DecodeFrom(code[:cut], 0); err == nil {
						t.Errorf("%s: %s cut to %d of %d bytes decoded without error", d.Name, op, cut, len(code))
					}
				}
				for _, pos := range []int{-1, len(code), len(code) + 1} {
					if _, _, err := d.DecodeFrom(code, pos); err == nil {
						t.Errorf("%s: %s decoded at offset %d of %d bytes", d.Name, op, pos, len(code))
					}
				}
			}
		}
		for _, bad := range [][]byte{
			{byte(mOpCount), 0},
			{0xFF, 0},
			{byte(MALU), 0, byte(aluOpCount), 8, 1, 2, 3},
			{byte(MCvt), 0, byte(cvtOpCount), 8, 1, 2},
			{byte(MJcc), 0, byte(condCount), 1, 0, 0, 0, 0},
			{byte(MSetCC), 0, byte(condCount), 1, 2, 3},
		} {
			if in, _, err := d.Decode(bad); err == nil {
				t.Errorf("%s: % x decoded to %s", d.Name, bad, &in)
			}
		}
	}
}
