package prof

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
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
// Version 2's Blocks are exact block entry counts; version 1's were
// sample counts.
const ArtifactVersion = 2

// StackCount is one folded virtual stack and its sample count.
type StackCount struct {
	Stack string `json:"stack"` // "root;caller;leaf"
	Count uint64 `json:"count"`
}

// BlockCount is one executed block of the machine's and how many times
// it was entered. The block spans [Off, End), byte offsets from the
// owning function's code start — stable across runs of the same
// translation, unlike absolute code addresses — and every entry executes
// each of its instructions once.
type BlockCount struct {
	Func  string `json:"func"`
	Off   uint64 `json:"off"`
	End   uint64 `json:"end"`
	Count uint64 `json:"count"`
}

// compareBlocks orders BlockCounts by function, then extent: the order
// of Artifact.Blocks.
func compareBlocks(a, b BlockCount) int {
	if c := strings.Compare(a.Func, b.Func); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Off, b.Off); c != 0 {
		return c
	}
	return cmp.Compare(a.End, b.End)
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
	// Blocks are the exact block entry counts, sorted by compareBlocks.
	Blocks []BlockCount `json:"blocks"`
}

// Artifact snapshots the profiler into the versioned exchange form.
// Every slice is sorted, so identical profiles serialize byte-identically.
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
	for k, n := range p.blocks {
		a.Blocks = append(a.Blocks, BlockCount{Func: k.fn, Off: k.off, End: k.end, Count: n})
	}
	p.mu.Unlock()
	sort.Slice(a.Stacks, func(i, j int) bool { return a.Stacks[i].Stack < a.Stacks[j].Stack })
	slices.SortFunc(a.Blocks, compareBlocks)
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
	if !slices.IsSortedFunc(a.Blocks, compareBlocks) {
		return nil, fmt.Errorf("prof: corrupt profile artifact: blocks out of order")
	}
	return &a, nil
}

// Merge folds b's counts into a: totals and per-function, per-stack
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

	blocks := make(map[blockKey]int, len(a.Blocks))
	for i, bl := range a.Blocks {
		blocks[blockKey{bl.Func, bl.Off, bl.End}] = i
	}
	for _, bl := range b.Blocks {
		k := blockKey{bl.Func, bl.Off, bl.End}
		if i, ok := blocks[k]; ok {
			a.Blocks[i].Count += bl.Count
		} else {
			blocks[k] = len(a.Blocks)
			a.Blocks = append(a.Blocks, bl)
		}
	}
	slices.SortFunc(a.Blocks, compareBlocks)
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

// BlockCounts returns fn's executed blocks, ascending by extent: a
// sub-slice of a.Blocks, empty when fn never ran.
func (a *Artifact) BlockCounts(fn string) []BlockCount {
	lo, _ := slices.BinarySearchFunc(a.Blocks, fn, func(b BlockCount, fn string) int {
		return strings.Compare(b.Func, fn)
	})
	hi := lo
	for hi < len(a.Blocks) && a.Blocks[hi].Func == fn {
		hi++
	}
	return a.Blocks[lo:hi:hi]
}

// String summarizes the artifact for logs.
func (a *Artifact) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "guest profile v%d: %s on %s, %d samples @1/%d instrs, %d funcs",
		a.Version, a.Module, a.Target, a.Total, a.Rate, len(a.Funcs))
	return b.String()
}
