package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestEventKindNames: every kind has its own non-empty name. A kind
// deleted from the middle of the list without its name (or the reverse)
// leaves an empty or shifted slot, which fails here.
func TestEventKindNames(t *testing.T) {
	seen := map[string]EventKind{}
	for k := EventKind(0); k < numEventKinds; k++ {
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
	}
}

// chromeDoc is the part of a Chrome trace_event document the tests read.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  uint64         `json:"pid"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	Unit string `json:"displayTimeUnit"`
}

func renderChrome(t *testing.T, r *Ring) chromeDoc {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	var d chromeDoc
	if err := json.Unmarshal(b.Bytes(), &d); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	return d
}

// TestRingChromeJSONEmpty: a ring that holds no events, because none
// were emitted or because it keeps none, still renders as a valid
// document that names lane 0 and nothing else.
func TestRingChromeJSONEmpty(t *testing.T) {
	kept := NewRing(0)
	kept.Emit(Event{Kind: EvRun, Name: "main", Dur: 1, Session: 1})
	for name, r := range map[string]*Ring{"unused": NewRing(4), "zero capacity": kept} {
		d := renderChrome(t, r)
		if d.Unit != "ms" || len(d.TraceEvents) != 1 || d.TraceEvents[0].Ph != "M" || d.TraceEvents[0].PID != 0 {
			t.Errorf("%s ring renders %+v, want one lane-0 name in ms", name, d)
		}
	}
}

// TestRingChromeJSON: the ring renders as a Chrome trace_event document
// that names lane 0 and every session lane, turns a span into a
// complete ("X") event and an instant into an "i" event, names each by
// kind and Name, and carries the session and tenant as args.
func TestRingChromeJSON(t *testing.T) {
	r := NewRing(8)
	r.Emit(Event{Kind: EvCacheHit, Name: "native:m:vx86"})
	r.Emit(Event{Kind: EvRun, Name: "main", Time: 1, Dur: 2000, Session: 3, Tenant: "t"})
	r.Emit(Event{Kind: EvCancel, Name: "main", Session: 3, Tenant: "t"})
	d := renderChrome(t, r)
	phases := map[string]int{}
	lanes := map[uint64]string{}
	for _, e := range d.TraceEvents {
		phases[e.Ph]++
		switch e.Ph {
		case "M":
			lanes[e.PID] = e.Args["name"].(string)
		case "X":
			if e.Name != "run:main" || e.PID != 3 || e.Dur != 2 || e.Args["session"] != 3.0 || e.Args["tenant"] != "t" {
				t.Errorf("span renders as %+v", e)
			}
		}
	}
	if phases["X"] != 1 || phases["i"] != 2 || phases["M"] != 2 {
		t.Errorf("phase counts = %v, want X:1 i:2 M:2", phases)
	}
	if lanes[0] != "llee system" || lanes[3] != "session 3" {
		t.Errorf("lanes = %v", lanes)
	}
}
