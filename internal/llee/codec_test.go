package llee

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/target"
)

func sampleCachedObject() *cachedObject {
	return &cachedObject{
		TargetName: "vx86",
		Module:     "m",
		Funcs: []cachedFunc{
			{&codegen.NativeFunc{
				Name: "main",
				Code: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
				Relocs: []target.Reloc{
					{Offset: 1, Kind: target.RelocCall, Sym: "callee"},
					{Offset: 9, Kind: target.RelocExt, Sym: "print_int"}, // its last byte is the code's last
				},
				NumInstrs: 7,
				NumLLVA:   3,
				// Two blocks at 0 and 4, the epilogue at 13.
				Blocks: codegen.BlockTable{0, 0, 0, 0, 4, 0, 0, 0, 13, 0, 0, 0},
			}, ""},
			{&codegen.NativeFunc{Name: "empty"}, ""}, // no code, no relocs
			// A tier-2 record: tagged with the stamp of the profile that guided it.
			{&codegen.NativeFunc{Name: "leaf", Code: bytes.Repeat([]byte{0xAB}, 300), NumInstrs: 150, NumLLVA: 50}, Stamp([]byte("a guest profile"))},
		},
	}
}

// translateModule is codegen's whole-module translation of m for d.
func translateModule(t testing.TB, m *core.Module, d *target.Desc) *codegen.NativeObject {
	t.Helper()
	tr, err := codegen.New(d, m)
	if err != nil {
		t.Fatal(err)
	}
	nobj, err := tr.TranslateModule()
	if err != nil {
		t.Fatal(err)
	}
	return nobj
}

// tier1Records wraps translations no profile guided as cache records.
func tier1Records(funcs []*codegen.NativeFunc) []cachedFunc {
	recs := make([]cachedFunc, len(funcs))
	for i, nf := range funcs {
		recs[i] = cachedFunc{nf, ""}
	}
	return recs
}

func TestCacheCodecRoundTrip(t *testing.T) {
	co := sampleCachedObject()
	blob := encodeCachedObject(co)
	if !bytes.HasPrefix(blob, codecMagic) {
		t.Fatal("encoded blob is missing the codec magic")
	}
	got, err := decodeCachedObject(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(co, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, co)
	}
}

func TestCacheCodecCorrupt(t *testing.T) {
	co := sampleCachedObject()
	blob := encodeCachedObject(co)
	// The formats before per-function profile tags (version 1) and before
	// block tables (version 2): no shim reads them.
	v1 := append([]byte{}, blob...)
	v1[len(codecMagic)] = 1
	v2 := append([]byte{}, blob...)
	v2[len(codecMagic)] = 2
	// A stamp-valid, well-framed blob whose relocations would make the
	// loader write outside the function's code, or which names a kind the
	// loader does not know: target.Desc.Patch checks neither.
	reloc := func(r target.Reloc) []byte {
		co := sampleCachedObject()
		co.Funcs[0].Relocs[1] = r
		return encodeCachedObject(co)
	}
	// A block table that would send the profile's entries astray.
	blocks := func(t codegen.BlockTable) []byte {
		co := sampleCachedObject()
		co.Funcs[0].Blocks = t
		return encodeCachedObject(co)
	}
	cases := map[string][]byte{
		"blocks ragged":      blocks(codegen.BlockTable{0, 0, 0, 0, 4, 0}),
		"blocks descending":  blocks(codegen.BlockTable{4, 0, 0, 0, 0, 0, 0, 0}),
		"blocks past code":   blocks(codegen.BlockTable{0, 0, 0, 0, 14, 0, 0, 0}),
		"empty":              {},
		"garbage":            []byte("not a cache blob at all"),
		"bad version":        append(append([]byte{}, codecMagic...), 99),
		"version 1":          v1,
		"version 2":          v2,
		"truncated":          blob[:len(blob)/2],
		"trailing":           append(append([]byte{}, blob...), 0xFF),
		"reloc past code":    reloc(target.Reloc{Offset: 1 << 20, Kind: target.RelocExt, Sym: "print_int"}),
		"reloc straddles":    reloc(target.Reloc{Offset: 10, Kind: target.RelocExt, Sym: "print_int"}),
		"reloc wraps uint32": reloc(target.Reloc{Offset: 1<<32 - 2, Kind: target.RelocAbs, Sym: "g"}),
		"reloc kind unknown": reloc(target.Reloc{Offset: 0, Kind: target.RelocKind(len(relocWidth)), Sym: "g"}),
		"disp32 past code":   reloc(target.Reloc{Offset: 10, Kind: target.RelocDisp32, Sym: "g"}),
	}
	for name, data := range cases {
		if _, err := decodeCachedObject(data); !errors.Is(err, errCorruptCache) {
			t.Errorf("%s: err = %v, want errCorruptCache", name, err)
		}
	}
}

// TestRelocWidthMatchesPatch ties the codec's bounds check to the loader it
// protects: for every kind in relocWidth, target.Desc.Patch writes a buffer
// of exactly that width and panics on one a byte shorter, and the first
// kind past the table is one Patch refuses.
func TestRelocWidthMatchesPatch(t *testing.T) {
	panics := func(kind target.RelocKind, n uint64) (p bool) {
		defer func() { p = recover() != nil }()
		target.VX86.Patch(make([]byte, n), 0, kind, 0x1122334455667788)
		return false
	}
	for kind, w := range relocWidth {
		if panics(target.RelocKind(kind), w) || !panics(target.RelocKind(kind), w-1) {
			t.Errorf("reloc kind %d: Patch does not write exactly %d bytes", kind, w)
		}
	}
	if !panics(target.RelocKind(len(relocWidth)), 16) {
		t.Errorf("reloc kind %d is known to Patch and missing from relocWidth", len(relocWidth))
	}
}

func TestCacheCodecEmptyObject(t *testing.T) {
	co := &cachedObject{TargetName: "vsparc", Module: "empty"}
	got, err := decodeCachedObject(encodeCachedObject(co))
	if err != nil {
		t.Fatal(err)
	}
	if got.TargetName != "vsparc" || got.Module != "empty" || len(got.Funcs) != 0 {
		t.Errorf("empty object round trip: %+v", got)
	}
}
