package prof

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"llva/internal/telemetry"
)

func TestProfilerAggregation(t *testing.T) {
	p := NewProfiler(100)
	if p.Rate() != 100 {
		t.Fatalf("Rate() = %d, want 100", p.Rate())
	}
	// main->inner twice, main alone once, recursive main->f->f once.
	p.AddSample([]string{"main", "inner"})
	p.AddSample([]string{"main", "inner"})
	p.AddSample([]string{"main"})
	p.AddSample([]string{"main", "f", "f"})
	p.AddSample(nil) // dropped
	if p.Total() != 4 {
		t.Fatalf("Total() = %d, want 4", p.Total())
	}
	stats := map[string]FuncStat{}
	for _, s := range p.Funcs() {
		stats[s.Name] = s
	}
	if s := stats["main"]; s.Incl != 4 || s.Excl != 1 {
		t.Errorf("main: incl=%d excl=%d, want 4/1", s.Incl, s.Excl)
	}
	if s := stats["inner"]; s.Incl != 2 || s.Excl != 2 {
		t.Errorf("inner: incl=%d excl=%d, want 2/2", s.Incl, s.Excl)
	}
	// Recursion must not double-count inclusive samples.
	if s := stats["f"]; s.Incl != 1 || s.Excl != 1 {
		t.Errorf("f: incl=%d excl=%d, want 1/1 (recursion deduped)", s.Incl, s.Excl)
	}
	// Hottest-first order with name tiebreak.
	fs := p.Funcs()
	if fs[0].Name != "inner" {
		t.Errorf("hottest = %q, want inner", fs[0].Name)
	}
}

// TestAddSampleSteadyStateAllocatesNothing: a stack the profiler has
// seen costs no garbage, however deep. The benchmark's profiling run of
// the suite samples every 25 instructions; at two allocations a sample
// that was 1.1 GB of garbage, and how often it was collected depended on
// what else happened to sit in the heap.
func TestAddSampleSteadyStateAllocatesNothing(t *testing.T) {
	p := NewProfiler(100)
	for _, stack := range [][]string{
		{"main"},
		{"main", "inner"},
		{"main", "f", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o"},
	} {
		p.AddSample(stack)
		if n := testing.AllocsPerRun(100, func() { p.AddSample(stack) }); n != 0 {
			t.Errorf("AddSample of a seen stack of depth %d: %v allocs, want 0", len(stack), n)
		}
	}
	var b bytes.Buffer
	if err := p.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	if want := "main 102\nmain;f;f;g;h;i;j;k;l;m;n;o 102\nmain;inner 102\n"; b.String() != want {
		t.Errorf("folded output %q, want %q", b.String(), want)
	}
}

func TestWriteFoldedDeterministic(t *testing.T) {
	samples := [][]string{
		{"main", "a"}, {"main", "b"}, {"main"}, {"main", "a"},
	}
	render := func(order []int) string {
		p := NewProfiler(1)
		for _, i := range order {
			p.AddSample(samples[i])
		}
		var b strings.Builder
		if err := p.WriteFolded(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	got := render([]int{0, 1, 2, 3})
	if got != render([]int{3, 2, 1, 0}) {
		t.Fatalf("folded output depends on insertion order:\n%s", got)
	}
	want := "main 1\nmain;a 2\nmain;b 1\n"
	if got != want {
		t.Fatalf("folded = %q, want %q", got, want)
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	p := NewProfiler(64)
	p.AddSample([]string{"main", "hot"})
	p.AddSample([]string{"main"})
	p.AddBlockHits("hot", 2, 2)
	p.AddBlockHits("main", 1, 1)
	p.AddBlockHits("hot", 0, 1)
	p.AddBlockHits("hot", 2, 5)
	a := p.Artifact("prog", "vx86")
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("llva-guest-profile v4\n")) {
		t.Fatalf("artifact header missing: %q", data[:32])
	}
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", a, back)
	}
	// Encoding is byte-deterministic for the same block entries, and the
	// samples are not part of it: a profiler at another rate that took
	// none stores the same bytes.
	q := NewProfiler(1 << 40)
	q.AddBlockHits("hot", 2, 7)
	q.AddBlockHits("main", 1, 1)
	q.AddBlockHits("hot", 0, 1)
	data2, err := q.Artifact("prog", "vx86").Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("artifact encoding depends on the samples or the insertion order:\n%s\nvs\n%s", data, data2)
	}
	want := []BlockCount{{"hot", 0, 1}, {"hot", 2, 7}}
	if bc := back.BlockCounts("hot"); !reflect.DeepEqual(bc, want) {
		t.Errorf("BlockCounts(hot) = %v, want %v", bc, want)
	}
	if bc := back.BlockCounts("cold"); len(bc) != 0 {
		t.Errorf("BlockCounts(cold) = %v, want none", bc)
	}
}

func TestDecodeArtifactRejects(t *testing.T) {
	good, err := NewProfiler(1).Artifact("m", "t").Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"no header":     []byte("no newline here"),
		"wrong magic":   []byte("some-other-format v1\n{}"),
		"wrong version": bytes.Replace(good, []byte(" v4\n"), []byte(" v9\n"), 1),
		// Version 1 held sample counts where version 4 holds entries,
		// version 2 counted them by native-code extent, not LLVA block,
		// and version 3 carried the sampler's aggregate too.
		"version 1": []byte("llva-guest-profile v1\n{\"version\": 1}"),
		"version 2": []byte(`llva-guest-profile v2
{"version": 2, "blocks": [{"func": "f", "off": 0, "end": 8, "count": 1}]}`),
		"version 3": []byte(`llva-guest-profile v3
{"version": 3, "rate": 25, "total_samples": 1, "blocks": [{"func": "f", "block": 0, "count": 1}]}`),
		"corrupt body": []byte("llva-guest-profile v4\n{not json"),
		"blocks out of order": []byte(`llva-guest-profile v4
{"version": 4, "blocks": [{"func": "f", "block": 1, "count": 1}, {"func": "f", "block": 0, "count": 1}]}`),
	}
	for name, data := range cases {
		if _, err := DecodeArtifact(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	if _, err := DecodeArtifact(good); err != nil {
		t.Errorf("control decode failed: %v", err)
	}
}

func TestCrashReportRender(t *testing.T) {
	c := &CrashReport{
		Target:   "vx86",
		TrapNum:  5,
		PC:       0x1234,
		Detail:   "load outside data segment",
		Mnemonic: "mload.64 r1, [r2+0]",
		Func:     "bad_load",
		FuncBase: 0x1200,
		Instrs:   4242,
		Cycles:   9000,
		Regs:     []RegVal{{Name: "r1", Val: 7}, {Name: "sp", Val: 0xff00}},
		Backtrace: []Frame{
			{Func: "main", PC: 0x100},
			{Func: "bad_load", PC: 0x1234},
		},
		Disasm: []DisasmLine{
			{PC: 0x1230, Text: "mov r2, 0"},
			{PC: 0x1234, Text: "mload.64 r1, [r2+0]", Fault: true},
		},
		Events: []telemetry.Event{
			{Kind: telemetry.EvModuleLoad, Time: 1e9, Dur: 1500},
			{Kind: telemetry.EvSessionNew, Time: 1e9, Dur: 2_250_000},
			{Kind: telemetry.EvTrapTaken, Name: "oops", Value: 5},
		},
	}
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"trap 5 at %bad_load+0x34 (pc=0x1234)",
		"faulting instruction: mload.64",
		"faulted in",
		"%main",
		"r1  = 0x7",
		"=> 0x00001234",
		"TrapTaken",
		// Two spans that start together show how long each lasted.
		"module.load     [1.5µs]",
		"session.new     [2.25ms]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "oops (5) [") {
		t.Errorf("an instant event shows a duration:\n%s", out)
	}
}

func TestArtifactMerge(t *testing.T) {
	// The two runs sampled at different rates: block entries are exact, so
	// their profiles add up all the same.
	p1 := NewProfiler(64)
	p1.AddSample([]string{"main", "hot"})
	p1.AddBlockHits("hot", 2, 3)
	p1.AddBlockHits("main", 0, 1)
	p2 := NewProfiler(128)
	p2.AddSample([]string{"main", "cold"})
	p2.AddBlockHits("hot", 2, 4)
	p2.AddBlockHits("cold", 1, 1)
	a := p1.Artifact("prog", "vx86")
	b := p2.Artifact("prog", "vx86")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if bc := a.BlockCounts("hot"); !reflect.DeepEqual(bc, []BlockCount{{"hot", 2, 7}}) {
		t.Errorf("merged BlockCounts(hot) = %v, want 7 entries of block 2", bc)
	}
	// The merged artifact equals the one a single profiler over both
	// profiles would produce: byte-identical encoding.
	p3 := NewProfiler(64)
	p3.AddBlockHits("cold", 1, 1)
	p3.AddBlockHits("hot", 2, 7)
	p3.AddBlockHits("main", 0, 1)
	want, err := p3.Artifact("prog", "vx86").Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged encoding differs from single-profiler encoding:\n%s\nvs\n%s", got, want)
	}
	// Incompatible artifacts are rejected, left half untouched.
	for name, bad := range map[string]*Artifact{
		"module":  {Version: ArtifactVersion, Module: "other", Target: "vx86"},
		"target":  {Version: ArtifactVersion, Module: "prog", Target: "vsparc"},
		"version": {Version: ArtifactVersion + 1, Module: "prog", Target: "vx86"},
	} {
		if err := a.Merge(bad); err == nil {
			t.Errorf("%s mismatch: Merge succeeded, want error", name)
		}
	}
}
