package telemetry

import "testing"

// TestEventKindNames: every kind from EvTranslateStart to the last has its
// own non-empty name, and a trace log's name parses back to the kind that
// wrote it. A kind deleted from the middle of the list without its name
// (or the reverse) leaves an empty or shifted slot, which fails here.
func TestEventKindNames(t *testing.T) {
	seen := map[string]EventKind{}
	for k := EvTranslateStart; k < numEventKinds; k++ {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("kind %d: %v", k, err)
		}
		name := string(text)
		if name == "" || name != eventNames[k] {
			t.Errorf("kind %d marshals as %q, its name is %q", k, name, eventNames[k])
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
		var back EventKind
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Errorf("%q unmarshals as %d (%v), want %d", name, back, err, k)
		}
	}
	var k EventKind
	if err := k.UnmarshalText([]byte("NoSuchKind")); err == nil {
		t.Error("a name no kind has parsed without error")
	}
}
