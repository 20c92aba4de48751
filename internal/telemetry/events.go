package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// EventKind is the type tag of a structured event.
type EventKind uint8

// The kinds from EvModuleLoad on are the execution manager's lifecycle:
// spans of a module load, a session's construction, a run, a cache
// write-back, one function's install and an ahead-of-execution
// translation batch, and EvCancel, the instant a run was canceled.
// EvJITRequest is a span too: one demand translation, from the call that
// found no code to the code being ready.
const (
	EvCacheHit EventKind = iota
	EvCacheMiss
	EvStampMismatch
	EvInvalidate
	EvTrapTaken
	EvProfileLoaded
	EvProfileStored
	EvJITRequest
	EvCacheEvicted
	EvCacheCorrupt
	EvModuleLoad
	EvSessionNew
	EvRun
	EvCancel
	EvWriteBack
	EvInstall
	EvTranslate

	numEventKinds // not a kind: the number of kinds above
)

var eventNames = [numEventKinds]string{
	EvCacheHit:      "CacheHit",
	EvCacheMiss:     "CacheMiss",
	EvStampMismatch: "StampMismatch",
	EvInvalidate:    "Invalidate",
	EvTrapTaken:     "TrapTaken",
	EvProfileLoaded: "ProfileLoaded",
	EvProfileStored: "ProfileStored",
	EvJITRequest:    "JITRequest",
	EvCacheEvicted:  "CacheEvicted",
	EvCacheCorrupt:  "CacheCorrupt",
	EvModuleLoad:    "module.load",
	EvSessionNew:    "session.new",
	EvRun:           "run",
	EvCancel:        "cancel",
	EvWriteBack:     "cache.writeback",
	EvInstall:       "install",
	EvTranslate:     "Translate",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("Event(%d)", uint8(k))
}

// MarshalText makes event kinds render by name in JSON (crash reports).
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one structured occurrence: what happened (Kind), to what
// (Name — an entry point, a function, a cache key, or a trap detail),
// and an optional magnitude (Value — bytes, trap number, functions
// translated...). A span also has a duration (Dur; 0 is an instant) and
// starts at Time. Session is the lane of the session it happened in (0:
// the system's own), and Tenant the label that session ran for.
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    int64     `json:"time_unix_ns"`
	Dur     int64     `json:"dur_ns,omitempty"`
	Kind    EventKind `json:"kind"`
	Name    string    `json:"name,omitempty"`
	Value   int64     `json:"value,omitempty"`
	Session uint64    `json:"session,omitempty"`
	Tenant  string    `json:"tenant,omitempty"`
}

// Ring is a fixed-capacity event buffer: when full, the oldest events
// are overwritten. Seq numbers are global and never reused, so readers
// can detect how much history was lost (Dropped).
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever emitted; also the next Seq
}

// NewRing creates a ring retaining up to cap events (cap <= 0 retains
// nothing but still counts emits).
func NewRing(cap int) *Ring {
	if cap < 0 {
		cap = 0
	}
	return &Ring{buf: make([]Event, 0, cap)}
}

// Emit appends one event and numbers it. An event without a Time
// happened now.
func (r *Ring) Emit(e Event) {
	if e.Time == 0 {
		e.Time = time.Now().UnixNano()
	}
	r.mu.Lock()
	seq := r.next
	r.next++
	if cap(r.buf) == 0 {
		r.mu.Unlock()
		return
	}
	e.Seq = seq
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[seq%uint64(cap(r.buf))] = e
	}
	r.mu.Unlock()
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever emitted.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Dropped returns how many events were overwritten or discarded.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - uint64(len(r.buf))
}

// Snapshot returns the retained events oldest-first.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) || len(r.buf) == 0 {
		return append(out, r.buf...)
	}
	// Full ring: the oldest element sits at next % cap.
	c := uint64(cap(r.buf))
	start := r.next % c
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}

// Find returns the retained events of one kind, oldest-first.
func (r *Ring) Find(kind EventKind) []Event {
	var out []Event
	for _, e := range r.Snapshot() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// EventsSnapshot summarizes ring state for metric export.
type EventsSnapshot struct {
	Total    uint64 `json:"total"`
	Retained int    `json:"retained"`
	Dropped  uint64 `json:"dropped"`
}

// Stats returns the ring's aggregate state.
func (r *Ring) Stats() EventsSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return EventsSnapshot{
		Total:    r.next,
		Retained: len(r.buf),
		Dropped:  r.next - uint64(len(r.buf)),
	}
}
