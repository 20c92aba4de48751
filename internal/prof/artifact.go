package prof

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// The persisted profile artifact: a guest profile's exact block entries
// in a stable, versioned format the tier-2 optimizing translator can
// consume without talking to a live Profiler. The on-disk layout is a
// magic+version header line followed by indented JSON, so a cache entry
// is both machine-checkable and readable with a pager.

// artifactMagic prefixes every serialized artifact; the version is part
// of the header line so a decoder rejects future formats before parsing.
const artifactMagic = "llva-guest-profile"

// ArtifactVersion is the current artifact format version. Bump it when
// the JSON body changes incompatibly; decoders reject other versions.
// Version 4 holds the exact block entries alone; version 3 also carried
// the sampler's aggregate, version 2 counted entries per machine block,
// by extent in the native code, and version 1's were sample counts.
const ArtifactVersion = 4

// BlockCount is one executed LLVA block and how many times it was
// entered. Block indexes the owning function's blocks in the virtual
// object code, which the profile is stamped with, so the count means the
// same whatever native code ran it.
type BlockCount struct {
	Func  string `json:"func"`
	Block int    `json:"block"`
	Count uint64 `json:"count"`
}

// compareBlocks orders BlockCounts by function, then block: the order of
// Artifact.Blocks.
func compareBlocks(a, b BlockCount) int {
	if c := strings.Compare(a.Func, b.Func); c != 0 {
		return c
	}
	return cmp.Compare(a.Block, b.Block)
}

// Artifact is the serializable form of a guest profile: the exact
// block entries of the functions that ran. The sampler's aggregate is
// for observability (WriteFolded, WriteReport) and is not stored, so a
// profile means the same whatever the sampling rate.
type Artifact struct {
	Version int    `json:"version"`
	Module  string `json:"module"`
	Target  string `json:"target"`
	// Blocks are the exact block entry counts, sorted by compareBlocks.
	Blocks []BlockCount `json:"blocks"`
}

// Artifact snapshots the profiler's block entries into the versioned
// exchange form. Blocks is sorted, so identical profiles serialize
// byte-identically.
func (p *Profiler) Artifact(module, target string) *Artifact {
	a := &Artifact{Version: ArtifactVersion, Module: module, Target: target}
	p.mu.Lock()
	for k, n := range p.blocks {
		a.Blocks = append(a.Blocks, BlockCount{Func: k.fn, Block: k.block, Count: n})
	}
	p.mu.Unlock()
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

// Merge folds b's block entries into a, summing the counts of a block
// both saw, so profiles from repeated runs accumulate instead of the last
// run winning. Both artifacts must be the same version and describe the
// same module and target: merging across those boundaries would mix
// incomparable numbers, so it is rejected. Blocks is re-sorted,
// preserving the byte-identical-serialization property.
func (a *Artifact) Merge(b *Artifact) error {
	if b.Version != a.Version {
		return fmt.Errorf("prof: cannot merge artifact version %d into %d", b.Version, a.Version)
	}
	if b.Module != a.Module || b.Target != a.Target {
		return fmt.Errorf("prof: cannot merge profile of %s/%s into %s/%s",
			b.Module, b.Target, a.Module, a.Target)
	}
	blocks := make(map[blockKey]int, len(a.Blocks))
	for i, bl := range a.Blocks {
		blocks[blockKey{bl.Func, bl.Block}] = i
	}
	for _, bl := range b.Blocks {
		k := blockKey{bl.Func, bl.Block}
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

// BlockCounts returns fn's executed blocks, ascending by index: a
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
	return fmt.Sprintf("guest profile v%d: %s on %s, %d blocks counted",
		a.Version, a.Module, a.Target, len(a.Blocks))
}
