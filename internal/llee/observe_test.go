package llee

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"llva/internal/minic"
	"llva/internal/prof"
	"llva/internal/target"
)

// spinProg spends nearly all its instructions in %spin — enough retired
// instructions that a fine sampling rate yields a meaningful profile.
const spinProg = `
int spin(int n) {
	int i, s = 0;
	for (i = 0; i < n; i++) s += i ^ (s >> 2);
	return s;
}
int main() {
	print_int(spin(5000)); print_nl();
	return 0;
}
`

// TestSessionSpanTracing: 8 concurrent sessions of one System must leave
// spans in its telemetry ring that render as a valid Chrome trace_event
// document with every session's lifecycle spans on its own pid lane,
// carrying the session (and tenant) correlation args.
func TestSessionSpanTracing(t *testing.T) {
	m, err := minic.Compile("chain.c", chainProg)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem()
	defer sys.Close()
	const sessions = 8
	var wg sync.WaitGroup
	ids := make([]uint64, sessions)
	for i := 0; i < sessions; i++ {
		s, err := sys.NewSession(m, target.VX86, io.Discard, WithTenant(fmt.Sprintf("tenant-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID()
		if s.Tenant() != fmt.Sprintf("tenant-%d", i) {
			t.Fatalf("tenant = %q", s.Tenant())
		}
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			if _, err := s.Run(context.Background(), "main"); err != nil {
				t.Errorf("session %d: %v", s.ID(), err)
			}
		}(s)
	}
	wg.Wait()

	var b bytes.Buffer
	if err := sys.Telemetry().Events().WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	runSpans := map[int]bool{}  // pid -> saw run:main complete span
	newSpans := map[int]bool{}  // pid -> saw session.new
	procNames := map[int]bool{} // pid -> named lane
	sawLoad, spans := false, 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
		switch {
		case e.Ph == "X" && e.Name == "run:main":
			runSpans[e.PID] = true
			if e.Args["session"] == nil || e.Args["tenant"] == nil {
				t.Errorf("run span on pid %d misses correlation args: %v", e.PID, e.Args)
			}
		case e.Ph == "X" && e.Name == "session.new":
			newSpans[e.PID] = true
		case e.Ph == "X" && e.Name == "module.load":
			sawLoad = true
		case e.Ph == "M" && e.Name == "process_name":
			procNames[e.PID] = true
		}
	}
	if !sawLoad {
		t.Error("no module.load span recorded")
	}
	for _, id := range ids {
		if !runSpans[int(id)] {
			t.Errorf("session %d has no complete run:main span", id)
		}
		if !newSpans[int(id)] {
			t.Errorf("session %d has no session.new span", id)
		}
		if !procNames[int(id)] {
			t.Errorf("session %d lane is unnamed", id)
		}
	}
	if spans < sessions*2 {
		t.Errorf("%d spans, want >= %d", spans, sessions*2)
	}
}

// TestGuestProfilePersistence: the sampling profile round-trips through
// the storage API with stamp validation, and a stale or wrong-version
// artifact is rejected (stale: evicted silently; wrong version: loud).
func TestGuestProfilePersistence(t *testing.T) {
	m, err := minic.Compile("spin.c", spinProg)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStorage()
	p := prof.NewProfiler(64)
	sys := NewSystem(WithStorage(st))
	defer sys.Close()
	s, err := sys.NewSession(m, target.VX86, io.Discard, WithProfiler(p))
	if err != nil {
		t.Fatal(err)
	}
	if s.Profiler() != p {
		t.Fatal("Profiler() does not return the attached profiler")
	}
	if _, err := s.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if p.Total() == 0 {
		t.Fatal("no samples recorded")
	}
	if err := s.StoreGuestProfile(); err != nil {
		t.Fatal(err)
	}
	a, ok, err := s.LoadGuestProfile()
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if want := p.Artifact(s.Module().Name, "vx86"); a.Target != "vx86" || a.Version != prof.ArtifactVersion ||
		!reflect.DeepEqual(a.Blocks, want.Blocks) {
		t.Errorf("artifact = %s, want the profiler's %d counted blocks", a, len(want.Blocks))
	}
	if bc := a.BlockCounts("spin"); len(bc) < 2 || bc[0] != (prof.BlockCount{Func: "spin", Block: 0, Count: 1}) {
		t.Errorf("BlockCounts(spin) = %v, want its entry block entered once and its loop", bc)
	}

	key := "guestprof:" + s.Module().Name + ":vx86"
	good, stamp, ok, err := st.Read(key)
	if err != nil || !ok {
		t.Fatalf("raw read: ok=%v err=%v", ok, err)
	}

	// A stale stamp (different object code) is a silent miss and evicts.
	if err := st.Write(key, "stale-stamp", good); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.LoadGuestProfile(); err != nil || ok {
		t.Fatalf("stale profile: ok=%v err=%v, want miss", ok, err)
	}
	if _, _, ok, _ := st.Read(key); ok {
		t.Error("stale profile was not evicted")
	}

	// A future format version under a valid stamp must fail loudly.
	bad := bytes.Replace(good, []byte(fmt.Sprintf(" v%d\n", prof.ArtifactVersion)), []byte(" v99\n"), 1)
	if err := st.Write(key, stamp, bad); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadGuestProfile(); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("wrong-version load: err = %v, want version error", err)
	}
}

// TestProfilerOffIsBitIdentical: a session without a profiler and one
// with must retire identical instruction and cycle counts — the
// acceptance bar for "observability is free when off, deterministic
// when on".
func TestProfilerOffIsBitIdentical(t *testing.T) {
	m, err := minic.Compile("spin.c", spinProg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *prof.Profiler) Result {
		sys := NewSystem()
		defer sys.Close()
		opts := []SessionOption{}
		if p != nil {
			opts = append(opts, WithProfiler(p))
		}
		s, err := sys.NewSession(m, target.VX86, io.Discard, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background(), "main")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(nil)
	on := run(prof.NewProfiler(256))
	if off.Instrs != on.Instrs || off.Cycles != on.Cycles {
		t.Errorf("profiler perturbs execution: off instrs=%d cycles=%d, on instrs=%d cycles=%d",
			off.Instrs, off.Cycles, on.Instrs, on.Cycles)
	}
}
