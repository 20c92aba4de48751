package llee

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/telemetry"
	"llva/internal/trace"
)

// Idle-time profile-guided optimization (paper, Section 4.2): "the rich
// information in LLVA also enables 'idle-time' profile-guided
// optimization using the translator's optimization and code generation
// capabilities ... using profile information gathered from executions on
// an end-user's system." The system gathers a profile from a
// representative execution, persists it through the storage API, forms
// hot traces, re-lays out the virtual object code so hot paths fall
// through, and installs the retranslated code in the offline cache — all
// without the end user doing anything but running the program.

// profileBlob is the storage representation of a gathered profile:
// execution counts keyed by function name and block index (stable across
// sessions for identical object code, which the stamp guarantees).
type profileBlob struct {
	Block map[string]map[int]uint64
	Edge  map[string]map[[2]int]uint64
	Call  map[string]uint64
}

// gatherProfile executes the program once on the instrumented reference
// interpreter (the paper's static-instrumentation-assisted profiling) and
// stores the profile in the offline cache.
func (ms *moduleState) gatherProfile(entry string, args ...uint64) error {
	if ms.sys.storage == nil {
		return fmt.Errorf("llee: profile persistence requires the storage API")
	}
	prof := interp.NewProfile()
	ip, err := interp.New(ms.module, io.Discard, interp.WithProfile(prof))
	if err != nil {
		return err
	}
	if _, err := ip.Run(entry, args...); err != nil {
		return err
	}
	blob := encodeProfile(ms.module, prof)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		return err
	}
	if err := ms.sys.storage.Write(ms.key("profile"), ms.stamp, buf.Bytes()); err != nil {
		return err
	}
	tele := ms.sys.tele
	prof.Export(tele)
	tele.Counter(MetricProfileStores).Inc()
	tele.Events().Emit(telemetry.EvProfileStored, ms.key("profile"), int64(buf.Len()))
	return nil
}

// loadProfile reads and decodes the persisted profile, validating its
// stamp against the current virtual object code. A missing, unreadable
// or stale profile is not an error (ok=false); a corrupt one is.
func (ms *moduleState) loadProfile() (*interp.Profile, bool, error) {
	data, ok := ms.readStamped(ms.key("profile"), ms.stamp)
	if !ok {
		return nil, false, nil
	}
	var blob profileBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		return nil, false, fmt.Errorf("llee: corrupt profile: %w", err)
	}
	prof := decodeProfile(ms.module, &blob)
	ms.sys.tele.Counter(MetricProfileLoads).Inc()
	ms.sys.tele.Events().Emit(telemetry.EvProfileLoaded, ms.key("profile"), int64(len(prof.Block)))
	return prof, true, nil
}

// seedTraceCache reloads the persisted profile and rebuilds the software
// trace cache from it without re-profiling. It runs once per module
// state — before any session machine exists. When relayout is true (the
// online-translation path) the hot traces also re-lay out the virtual
// object code so the JIT emits straight-line hot paths; a cache hit
// must not relayout, since the cached native code was built against the
// stored block order.
func (ms *moduleState) seedTraceCache(relayout bool) error {
	prof, ok, err := ms.loadProfile()
	if err != nil || !ok {
		return err
	}
	// Call counts order speculative JIT hottest-first (Section 4.2's
	// profile information guiding the §4.1 translate-ahead machinery).
	ms.callWeights = make(map[string]uint64, len(prof.Call))
	for f, n := range prof.Call {
		ms.callWeights[f.Name()] = n
	}
	traces := trace.Form(ms.module, prof, trace.Options{})
	ms.traceStats = trace.Summarize(prof, traces)
	ms.profileSeeded = true
	ms.recordTraceStats(ms.traceStats)
	if relayout && len(traces) > 0 {
		relaid := trace.ApplyLayout(ms.module, traces)
		ms.sys.tele.Gauge(MetricTraceRelaid).Set(int64(relaid))
		if err := core.Verify(ms.module); err != nil {
			return fmt.Errorf("llee: relayout broke the module: %w", err)
		}
	}
	return nil
}

// idleTimeOptimize performs the between-executions step: it loads the
// stored profile (failing softly to a plain offline translation when none
// is valid), applies trace-driven relayout to the virtual object code,
// retranslates the whole module, and replaces the cached translation.
// It returns trace statistics for reporting.
func (ms *moduleState) idleTimeOptimize() (trace.Stats, error) {
	var st trace.Stats
	if ms.sys.storage == nil {
		return st, fmt.Errorf("llee: idle-time optimization requires the storage API")
	}
	prof, ok, err := ms.loadProfile()
	if err != nil {
		return st, err
	}
	if ok {
		traces := trace.Form(ms.module, prof, trace.Options{})
		st = trace.Summarize(prof, traces)
		ms.traceStats = st
		ms.profileSeeded = true
		ms.recordTraceStats(st)
		relaid := trace.ApplyLayout(ms.module, traces)
		ms.sys.tele.Gauge(MetricTraceRelaid).Set(int64(relaid))
		if err := core.Verify(ms.module); err != nil {
			return st, fmt.Errorf("llee: relayout broke the module: %w", err)
		}
	}
	return st, ms.translateOffline()
}

func encodeProfile(m *core.Module, prof *interp.Profile) *profileBlob {
	blob := &profileBlob{
		Block: make(map[string]map[int]uint64),
		Edge:  make(map[string]map[[2]int]uint64),
		Call:  make(map[string]uint64),
	}
	byName := make(map[*core.BasicBlock]struct {
		fn  string
		idx int
	})
	for _, f := range m.Functions {
		for i, bb := range f.Blocks {
			byName[bb] = struct {
				fn  string
				idx int
			}{f.Name(), i}
		}
	}
	for bb, n := range prof.Block {
		k := byName[bb]
		if blob.Block[k.fn] == nil {
			blob.Block[k.fn] = make(map[int]uint64)
		}
		blob.Block[k.fn][k.idx] = n
	}
	for e, n := range prof.Edge {
		kf, kt := byName[e.From], byName[e.To]
		if kf.fn != kt.fn {
			continue
		}
		if blob.Edge[kf.fn] == nil {
			blob.Edge[kf.fn] = make(map[[2]int]uint64)
		}
		blob.Edge[kf.fn][[2]int{kf.idx, kt.idx}] = n
	}
	for f, n := range prof.Call {
		blob.Call[f.Name()] = n
	}
	return blob
}

func decodeProfile(m *core.Module, blob *profileBlob) *interp.Profile {
	prof := interp.NewProfile()
	for _, f := range m.Functions {
		if bc, ok := blob.Block[f.Name()]; ok {
			for idx, n := range bc {
				if idx < len(f.Blocks) {
					prof.Block[f.Blocks[idx]] = n
				}
			}
		}
		if ec, ok := blob.Edge[f.Name()]; ok {
			for pair, n := range ec {
				if pair[0] < len(f.Blocks) && pair[1] < len(f.Blocks) {
					prof.Edge[interp.Edge{From: f.Blocks[pair[0]], To: f.Blocks[pair[1]]}] = n
				}
			}
		}
		if n, ok := blob.Call[f.Name()]; ok {
			prof.Call[f] = n
		}
	}
	return prof
}
