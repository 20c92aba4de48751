package target

import (
	"errors"
	"testing"
)

// TestCheck: Check names the first instruction that breaks a rule, its
// field and the rule, one row per rule, and reads no field an op's form
// does not name.
func TestCheck(t *testing.T) {
	r, f := Reg(7), FPBase+9
	ok := []MInstr{
		{Op: MMovRR, Rd: r, Rs1: f, Rs2: VRegBase, Size: 3, Cnd: condCount}, // Rs2, Size and Cnd unnamed
		{Op: MJmp, Rd: VRegBase, Alu: aluOpCount, HasMem: true, Scale: 3},
		{Op: MCmp, Rs1: r, Rs2: NoReg, HasImm: true, Imm: -4096},
		{Op: MLoad, Rd: r, Base: Reg(1), Index: NoReg, Size: 8, Disp: 4095},
		{Op: MCmp, Rs1: r, Rs2: NoReg, SetsFlags: true}, // SetsFlags unnamed
	}
	if err := VSPARC.Check(ok); err != nil {
		t.Fatalf("vsparc: %v", err)
	}
	flagged := []MInstr{
		{Op: MALU, Alu: AXor, Size: 1, Rd: r, Rs1: r, Rs2: r, SetsFlags: true},
		{Op: MALU, Alu: AShr, Size: 8, Rd: r, Rs1: r, HasImm: true, Imm: 63, SetsFlags: true},
		{Op: MALU, Alu: AOr, Size: 8, Rd: r, Rs1: r, HasMem: true, Base: r, Index: NoReg, SetsFlags: true},
	}
	if err := VX86.Check(flagged); err != nil {
		t.Fatalf("vx86: %v", err)
	}
	for _, c := range []struct {
		d     *Desc
		bad   MInstr
		field Field
		rule  Rule
	}{
		{VSPARC, MInstr{Op: MMovRR, Rd: Reg(32), Rs1: r}, FRd, RuleReg},
		{VX86, MInstr{Op: MMovRR, Rd: r, Rs1: Reg(16)}, FRs1, RuleReg},
		{VSPARC, MInstr{Op: MALU, Alu: AAdd, Size: 8, Rd: r, Rs1: r, Rs2: FPBase + 25, FP: true}, FRs2, RuleReg},
		{VX86, MInstr{Op: MStore, Rs1: r, Base: VRegBase, Index: NoReg, Size: 8}, FMem, RuleReg},
		{VSPARC, MInstr{Op: MALU, Alu: aluOpCount, Size: 8, Rd: r, Rs1: r, Rs2: r}, FALU, RuleValue},
		{VX86, MInstr{Op: MSetCC, Cnd: condCount, Rd: r, Rs1: NoReg, Rs2: NoReg}, FCond, RuleValue},
		{VSPARC, MInstr{Op: MCvt, Cvt: cvtOpCount, Size: 8, Rd: r, Rs1: r}, FCvt, RuleValue},
		{VX86, MInstr{Op: MLoad, Rd: r, Base: r, Index: NoReg, Size: 3}, FSize, RuleSize},
		{VSPARC, MInstr{Op: MCmp, Rs1: r, HasImm: true, Imm: 4096}, FImm, RuleImm},
		{VSPARC, MInstr{Op: MLoad, Rd: r, Base: r, Index: Reg(9), Scale: 1, Size: 8, Disp: 8}, FMem, RuleAddr},
		{VX86, MInstr{Op: MLea, Rd: r, Base: r, Index: Reg(9), Scale: 3}, FMem, RuleAddr},
		// Flags set where SetsFlagsFits refuses them: a target without
		// flags, an FP op, an op x86 leaves them undefined after, a
		// shift by a register, by zero or by the whole width.
		{VSPARC, MInstr{Op: MALU, Alu: AAnd, Size: 8, Rd: r, Rs1: r, Rs2: r, SetsFlags: true}, FSetsFlags, RuleFlags},
		{VX86, MInstr{Op: MALU, Alu: AAdd, Size: 8, Rd: f, Rs1: f, Rs2: f, FP: true, SetsFlags: true}, FSetsFlags, RuleFlags},
		{VX86, MInstr{Op: MALU, Alu: AMul, Size: 4, Rd: r, Rs1: r, Rs2: r, SetsFlags: true}, FSetsFlags, RuleFlags},
		{VX86, MInstr{Op: MALU, Alu: AShl, Size: 8, Rd: r, Rs1: r, Rs2: r, SetsFlags: true}, FSetsFlags, RuleFlags},
		{VX86, MInstr{Op: MALU, Alu: AShr, Size: 4, Rd: r, Rs1: r, HasImm: true, Imm: 0, SetsFlags: true}, FSetsFlags, RuleFlags},
		{VX86, MInstr{Op: MALU, Alu: AShl, Size: 2, Rd: r, Rs1: r, HasImm: true, Imm: 16, SetsFlags: true}, FSetsFlags, RuleFlags},
	} {
		err := c.d.Check(append(ok[:1:1], c.bad))
		var ce *CheckError
		if !errors.As(err, &ce) || ce.Index != 1 || ce.Field != c.field || ce.Rule != c.rule {
			t.Errorf("%s: %s: err = %v, want instruction 1's %s: %s", c.d.Name, &c.bad, err, c.field, c.rule)
		}
	}
}

// TestSetsFlagsString: a flag-setting ALU op prints its bit after the
// size, and only an op whose form names the field prints it.
func TestSetsFlagsString(t *testing.T) {
	for _, c := range []struct {
		in   MInstr
		want string
	}{
		{MInstr{Op: MALU, Alu: AAnd, Size: 8, Rd: 13, Rs1: 13, Rs2: 12, SetsFlags: true}, "alu.and.8.sf r13 r13 r12"},
		{MInstr{Op: MALU, Alu: ASub, Size: 4, Rd: 3, Rs1: 3, HasImm: true, Imm: 1, SetsFlags: true}, "alu.sub.4.sf r3 r3 $1"},
		{MInstr{Op: MALU, Alu: AAdd, Size: 8, Rd: 3, Rs1: 3, Rs2: FPBase, FP: true}, "alu.add.f.8 r3 r3 f0"},
		{MInstr{Op: MCmp, Rs1: 3, HasImm: true, SetsFlags: true}, "cmp r3 $0"},
	} {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
