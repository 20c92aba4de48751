package main

import "testing"

// TestExpectedOutputs holds testdata/expected.json to the reference
// interpreter: the outputs every op is checked against must come from
// the executable spec, never from a translator.
func TestExpectedOutputs(t *testing.T) {
	names := []string(nil)
	if testing.Short() {
		names = shortPrograms
	}
	progs, err := suitePrograms(names)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		m, err := frontEnd(p, traceCtx{})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		got, err := interpret(m)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got != p.want {
			t.Errorf("%s: interpreter printed %q, expected.json has %q", p.name, got, p.want)
		}
	}
}
