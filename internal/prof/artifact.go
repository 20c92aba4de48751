package prof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// The persisted profile artifact: a guest hotness profile in a stable,
// versioned format the tier-2 optimizing translator can consume without
// talking to a live Profiler. The on-disk layout is a magic+version
// header line followed by indented JSON, so a cache entry is both
// machine-checkable and readable with a pager.

// artifactMagic prefixes every serialized artifact; the version is part
// of the header line so a decoder rejects future formats before parsing.
const artifactMagic = "llva-guest-profile"

// ArtifactVersion is the current artifact format version. Bump it when
// the JSON body changes incompatibly; decoders reject other versions.
const ArtifactVersion = 1

// StackCount is one folded virtual stack and its sample count.
type StackCount struct {
	Stack string `json:"stack"` // "root;caller;leaf"
	Count uint64 `json:"count"`
}

// BlockCount is one sampled basic block, identified by its entry
// offset from the owning function's code start — stable across runs of
// the same translation, unlike absolute code addresses.
type BlockCount struct {
	Func  string `json:"func"`
	Off   uint64 `json:"off"`
	Count uint64 `json:"count"`
}

// Artifact is the serializable form of a guest profile.
type Artifact struct {
	Version int    `json:"version"`
	Module  string `json:"module"`
	Target  string `json:"target"`
	Rate    uint64 `json:"rate"` // retired virtual instructions per sample
	Total   uint64 `json:"total_samples"`

	Funcs  []FuncStat   `json:"funcs"`
	Stacks []StackCount `json:"stacks"`
	Blocks []BlockCount `json:"blocks"`
}

// Artifact snapshots the profiler into the versioned exchange form.
// Every slice is sorted, so identical sample populations serialize
// byte-identically.
func (p *Profiler) Artifact(module, target string) *Artifact {
	a := &Artifact{
		Version: ArtifactVersion,
		Module:  module,
		Target:  target,
		Rate:    p.rate,
		Funcs:   p.Funcs(),
	}
	p.mu.Lock()
	a.Total = p.total
	for k, v := range p.folded {
		a.Stacks = append(a.Stacks, StackCount{Stack: k, Count: *v})
	}
	for fn, bm := range p.blocks {
		for off, n := range bm {
			a.Blocks = append(a.Blocks, BlockCount{Func: fn, Off: off, Count: n})
		}
	}
	p.mu.Unlock()
	sort.Slice(a.Stacks, func(i, j int) bool { return a.Stacks[i].Stack < a.Stacks[j].Stack })
	sort.Slice(a.Blocks, func(i, j int) bool {
		if a.Blocks[i].Func != a.Blocks[j].Func {
			return a.Blocks[i].Func < a.Blocks[j].Func
		}
		return a.Blocks[i].Off < a.Blocks[j].Off
	})
	return a
}

// Encode serializes the artifact (header line + JSON body).
func (a *Artifact) Encode() ([]byte, error) {
	body, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		return nil, err
	}
	head := fmt.Sprintf("%s v%d\n", artifactMagic, a.Version)
	return append([]byte(head), body...), nil
}

// DecodeArtifact parses a serialized artifact, rejecting unknown
// formats and versions before touching the body.
func DecodeArtifact(data []byte) (*Artifact, error) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil, fmt.Errorf("prof: truncated profile artifact")
	}
	head := string(data[:i])
	var version int
	if _, err := fmt.Sscanf(head, artifactMagic+" v%d", &version); err != nil {
		return nil, fmt.Errorf("prof: not a guest profile artifact (header %q)", head)
	}
	if version != ArtifactVersion {
		return nil, fmt.Errorf("prof: unsupported profile artifact version %d (have %d)",
			version, ArtifactVersion)
	}
	var a Artifact
	if err := json.Unmarshal(data[i+1:], &a); err != nil {
		return nil, fmt.Errorf("prof: corrupt profile artifact: %w", err)
	}
	if a.Version != version {
		return nil, fmt.Errorf("prof: artifact header/body version mismatch (%d vs %d)",
			version, a.Version)
	}
	return &a, nil
}

// Merge folds b's samples into a: totals and per-function, per-stack
// and per-block counts are summed, so profiles from repeated runs
// accumulate instead of the last run winning. Both artifacts must be
// the same version and describe the same module, target and sampling
// rate — merging across those boundaries would mix incomparable
// numbers, so it is rejected. All slices are re-sorted, preserving the
// byte-identical-serialization property.
func (a *Artifact) Merge(b *Artifact) error {
	if b.Version != a.Version {
		return fmt.Errorf("prof: cannot merge artifact version %d into %d", b.Version, a.Version)
	}
	if b.Module != a.Module || b.Target != a.Target {
		return fmt.Errorf("prof: cannot merge profile of %s/%s into %s/%s",
			b.Module, b.Target, a.Module, a.Target)
	}
	if b.Rate != a.Rate {
		return fmt.Errorf("prof: cannot merge profiles with different sampling rates (%d vs %d)",
			b.Rate, a.Rate)
	}
	a.Total += b.Total

	funcs := make(map[string]int, len(a.Funcs))
	for i, s := range a.Funcs {
		funcs[s.Name] = i
	}
	for _, s := range b.Funcs {
		if i, ok := funcs[s.Name]; ok {
			a.Funcs[i].Incl += s.Incl
			a.Funcs[i].Excl += s.Excl
		} else {
			funcs[s.Name] = len(a.Funcs)
			a.Funcs = append(a.Funcs, s)
		}
	}
	sort.Slice(a.Funcs, func(i, j int) bool {
		if a.Funcs[i].Excl != a.Funcs[j].Excl {
			return a.Funcs[i].Excl > a.Funcs[j].Excl
		}
		return a.Funcs[i].Name < a.Funcs[j].Name
	})

	stacks := make(map[string]int, len(a.Stacks))
	for i, s := range a.Stacks {
		stacks[s.Stack] = i
	}
	for _, s := range b.Stacks {
		if i, ok := stacks[s.Stack]; ok {
			a.Stacks[i].Count += s.Count
		} else {
			stacks[s.Stack] = len(a.Stacks)
			a.Stacks = append(a.Stacks, s)
		}
	}
	sort.Slice(a.Stacks, func(i, j int) bool { return a.Stacks[i].Stack < a.Stacks[j].Stack })

	type blockKey struct {
		fn  string
		off uint64
	}
	blocks := make(map[blockKey]int, len(a.Blocks))
	for i, bl := range a.Blocks {
		blocks[blockKey{bl.Func, bl.Off}] = i
	}
	for _, bl := range b.Blocks {
		k := blockKey{bl.Func, bl.Off}
		if i, ok := blocks[k]; ok {
			a.Blocks[i].Count += bl.Count
		} else {
			blocks[k] = len(a.Blocks)
			a.Blocks = append(a.Blocks, bl)
		}
	}
	sort.Slice(a.Blocks, func(i, j int) bool {
		if a.Blocks[i].Func != a.Blocks[j].Func {
			return a.Blocks[i].Func < a.Blocks[j].Func
		}
		return a.Blocks[i].Off < a.Blocks[j].Off
	})
	return nil
}

// HotFuncs returns the functions carrying at least minShare of the
// exclusive samples, hottest first — the tier-2 translator's candidate
// list for superblock formation.
func (a *Artifact) HotFuncs(minShare float64) []FuncStat {
	var out []FuncStat
	if a.Total == 0 {
		return out
	}
	for _, s := range a.Funcs {
		if float64(s.Excl)/float64(a.Total) >= minShare {
			out = append(out, s)
		}
	}
	return out
}

// BlockCounts returns fn's sampled block offsets and counts (nil when
// the function was never sampled).
func (a *Artifact) BlockCounts(fn string) map[uint64]uint64 {
	var out map[uint64]uint64
	for _, b := range a.Blocks {
		if b.Func == fn {
			if out == nil {
				out = make(map[uint64]uint64)
			}
			out[b.Off] = b.Count
		}
	}
	return out
}

// String summarizes the artifact for logs.
func (a *Artifact) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "guest profile v%d: %s on %s, %d samples @1/%d instrs, %d funcs",
		a.Version, a.Module, a.Target, a.Total, a.Rate, len(a.Funcs))
	return b.String()
}
