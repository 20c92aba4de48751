package codegen_test

import (
	"testing"

	"llva/internal/codegen"
	"llva/internal/target"
	"llva/internal/workloads"
)

// TestCheckEveryStage: the code of every suite function, on both targets
// at tier 1 and (unless -short) at tier 2 from the tier-1 code's
// profile, is code its target encodes as it stands (Desc.Check) not only
// when layout checks it but after each pass that rewrites it: register
// allocation, frame and block layout with the branch peepholes, and the
// flags pass.
func TestCheckEveryStage(t *testing.T) {
	restore := codegen.CheckEveryStage(func(fn, stage string, err error) {
		t.Errorf("%%%s after %s: %v", fn, stage, err)
	})
	defer restore()
	for _, w := range workloads.All() {
		m, err := w.CompileOptimized()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []*target.Desc{target.VX86, target.VSPARC} {
			tr, err := codegen.New(d, m)
			if err != nil {
				t.Fatal(err)
			}
			obj, err := tr.TranslateModule()
			if err != nil {
				t.Fatalf("%s on %s: %v", w.Name, d.Name, err)
			}
			if testing.Short() {
				continue
			}
			art, _ := suiteProfile(t, d, m, obj)
			if _, err := tr.WithTier2(art).TranslateModule(); err != nil {
				t.Fatalf("%s on %s at tier 2: %v", w.Name, d.Name, err)
			}
		}
	}
}
