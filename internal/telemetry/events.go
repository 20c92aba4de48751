package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// EventKind is the type tag of a structured event.
type EventKind uint8

const (
	EvTranslateStart EventKind = iota
	EvTranslateEnd
	EvCacheHit
	EvCacheMiss
	EvStampMismatch
	EvInvalidate
	EvTrapTaken
	EvProfileLoaded
	EvProfileStored
	EvJITRequest
	EvCacheEvicted
	EvCacheCorrupt

	numEventKinds // not a kind: the number of kinds above
)

var eventNames = [numEventKinds]string{
	EvTranslateStart: "TranslateStart",
	EvTranslateEnd:   "TranslateEnd",
	EvCacheHit:       "CacheHit",
	EvCacheMiss:      "CacheMiss",
	EvStampMismatch:  "StampMismatch",
	EvInvalidate:     "Invalidate",
	EvTrapTaken:      "TrapTaken",
	EvProfileLoaded:  "ProfileLoaded",
	EvProfileStored:  "ProfileStored",
	EvJITRequest:     "JITRequest",
	EvCacheEvicted:   "CacheEvicted",
	EvCacheCorrupt:   "CacheCorrupt",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("Event(%d)", uint8(k))
}

// MarshalText makes event kinds render by name in JSON trace logs.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses an event kind by name (trace-log consumers).
func (k *EventKind) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range eventNames {
		if n == s {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", s)
}

// Event is one structured occurrence: what happened (Kind), to what
// (Name — a function, cache key, or trap detail), and an optional
// magnitude (Value — nanoseconds, trap number, trace length...).
type Event struct {
	Seq   uint64    `json:"seq"`
	Time  int64     `json:"time_unix_ns"`
	Kind  EventKind `json:"kind"`
	Name  string    `json:"name,omitempty"`
	Value int64     `json:"value,omitempty"`
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

// Emit appends one event.
func (r *Ring) Emit(kind EventKind, name string, value int64) {
	now := time.Now().UnixNano()
	r.mu.Lock()
	seq := r.next
	r.next++
	if cap(r.buf) == 0 {
		r.mu.Unlock()
		return
	}
	e := Event{Seq: seq, Time: now, Kind: kind, Name: name, Value: value}
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
