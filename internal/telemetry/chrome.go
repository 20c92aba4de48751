package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one Chrome trace_event record. Phase "X" is a complete
// span (ts + dur), "i" an instant, "M" a lane name.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	TS   float64     `json:"ts"`            // microseconds since the oldest retained event
	Dur  float64     `json:"dur,omitempty"` // microseconds, "X" only
	PID  uint64      `json:"pid"`
	TID  int         `json:"tid"`
	S    string      `json:"s,omitempty"` // instant scope
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	Name    string `json:"name,omitempty"` // "M" only: the lane's label
	Session uint64 `json:"session,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Value   int64  `json:"value,omitempty"`
}

// WriteChromeJSON renders the retained events as a Chrome trace_event
// JSON document (the "JSON Object Format"), which Perfetto
// (ui.perfetto.dev) and chrome://tracing load directly. Each session is
// a process lane named "session N"; lane 0 is "llee system". An event is
// named by its kind, followed by ":" and its Name when it has one
// ("run:main"), and its kind is also its category.
func (r *Ring) WriteChromeJSON(w io.Writer) error {
	evs := r.Snapshot()
	var base int64
	for i, e := range evs {
		if i == 0 || e.Time < base {
			base = e.Time
		}
	}
	out := make([]chromeEvent, 0, len(evs)+1)
	out = append(out, chromeEvent{Name: "process_name", Ph: "M", Args: &chromeArgs{Name: "llee system"}})
	named := map[uint64]bool{0: true}
	for _, e := range evs {
		if !named[e.Session] {
			named[e.Session] = true
			out = append(out, chromeEvent{Name: "process_name", Ph: "M", PID: e.Session,
				Args: &chromeArgs{Name: fmt.Sprintf("session %d", e.Session)}})
		}
		c := chromeEvent{Name: e.Kind.String(), Cat: e.Kind.String(), Ph: "i", S: "t",
			TS: float64(e.Time-base) / 1e3, PID: e.Session}
		if e.Name != "" {
			c.Name += ":" + e.Name
		}
		if e.Dur > 0 {
			c.Ph, c.S, c.Dur = "X", "", float64(e.Dur)/1e3
		}
		if e.Session != 0 || e.Tenant != "" || e.Value != 0 {
			c.Args = &chromeArgs{Session: e.Session, Tenant: e.Tenant, Value: e.Value}
		}
		out = append(out, c)
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{out, "ms"})
}
