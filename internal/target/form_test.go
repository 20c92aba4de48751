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
	}
	if err := VSPARC.Check(ok); err != nil {
		t.Fatalf("vsparc: %v", err)
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
	} {
		err := c.d.Check(append(ok[:1:1], c.bad))
		var ce *CheckError
		if !errors.As(err, &ce) || ce.Index != 1 || ce.Field != c.field || ce.Rule != c.rule {
			t.Errorf("%s: %s: err = %v, want instruction 1's %s: %s", c.d.Name, &c.bad, err, c.field, c.rule)
		}
	}
}
